package proc

import (
	"reflect"
	"testing"
	"unsafe"

	"trips/internal/critpath"
)

// TestPayloadSizes pins the byte budget of every value the core's micronets,
// event wheel and critical-path accounting copy per hop or per event. The
// GCN and GDN carry small indices into per-core storage (the wave ring and
// the per-frame dispatch payload), so a field added to a command or a beat
// lands there, not in every copy; growing one of these budgets is a
// performance decision to make on purpose, with a benchmark beside it.
func TestPayloadSizes(t *testing.T) {
	for _, c := range []struct {
		name   string
		size   uintptr
		budget uintptr
	}{
		{"critpath.Event", unsafe.Sizeof(critpath.Event{}), 40},
		{"schedEvent", unsafe.Sizeof(schedEvent{}), 40},
		{"gcnWave", unsafe.Sizeof(gcnWave(0)), 1},
		{"gsnMsg", unsafe.Sizeof(gsnMsg{}), 56},
		{"dsnMsg", unsafe.Sizeof(dsnMsg{}), 56},
		// The OPN mesh moves *opnMsg; the message itself is pooled, so its
		// size costs a clear and a fill per operand, never a copy per hop.
		{"opnMsg", unsafe.Sizeof(opnMsg{}), 240},
	} {
		if c.size > c.budget {
			t.Errorf("%s is %d bytes, over its %d-byte budget", c.name, c.size, c.budget)
		}
	}
}

// TestPayloadsPointerFree checks that critical-path events and the status
// network messages that carry them hold no pointers: copying them never
// involves the garbage collector, and a chain or queue of them is a flat
// array.
func TestPayloadsPointerFree(t *testing.T) {
	// The walker itself must see a pointer where there is one.
	if got := pointerPath(reflect.TypeOf(schedEvent{}), "schedEvent"); got != "schedEvent.msg" {
		t.Fatalf("pointerPath(schedEvent) = %q, want schedEvent.msg", got)
	}
	for _, v := range []any{critpath.Event{}, gsnMsg{}, dsnMsg{}} {
		typ := reflect.TypeOf(v)
		if path := pointerPath(typ, typ.String()); path != "" {
			t.Errorf("%s holds a pointer at %s", typ, path)
		}
	}
}

// pointerPath returns the path to the first pointer-carrying component of
// typ, or "" when it has none.
func pointerPath(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return path
	case reflect.Array:
		if typ.Len() == 0 {
			return ""
		}
		return pointerPath(typ.Elem(), path+"[0]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerPath(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}
