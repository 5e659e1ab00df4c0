package ckpt

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var w Writer
	w.Section("hdr")
	w.U8(0xAB)
	w.U16(0xCDEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.I64(-42)
	w.Int(-7)
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte{1, 2, 3})
	w.Bytes(nil)
	w.String("hello")
	w.Section("tail")

	r := NewReader(w.Payload())
	r.Section("hdr")
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if got := r.U16(); got != 0xCDEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != -7 {
		t.Errorf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Errorf("Bool round-trip failed")
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("nil Bytes = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	r.Section("tail")
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestSectionMismatch(t *testing.T) {
	var w Writer
	w.Section("alpha")
	w.U32(7)
	r := NewReader(w.Payload())
	r.Section("beta")
	if r.Err() == nil {
		t.Fatal("mismatched section name not detected")
	}
	// Missing marker entirely.
	r2 := NewReader([]byte{0, 0, 0, 0})
	r2.Section("alpha")
	if r2.Err() == nil {
		t.Fatal("absent section marker not detected")
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U64() // out of bounds
	if r.Err() == nil {
		t.Fatal("short read not detected")
	}
	first := r.Err()
	_ = r.U32()
	_ = r.String()
	if r.Err() != first {
		t.Fatal("error not sticky")
	}
}

func TestTrailingBytes(t *testing.T) {
	var w Writer
	w.U32(1)
	w.U32(2)
	r := NewReader(w.Payload())
	_ = r.U32()
	if err := r.Close(); err == nil {
		t.Fatal("trailing bytes not detected")
	}
}

func TestWriterGrowAndRecycle(t *testing.T) {
	var w Writer
	w.U32(7)
	w.Grow(1000)
	if w.Len() != 4 || cap(w.Payload()) < 1004 {
		t.Fatalf("after Grow: len %d cap %d, want len 4 cap >= 1004", w.Len(), cap(w.Payload()))
	}
	before := &w.Payload()[:1][0]
	for i := 0; i < 250; i++ {
		w.U32(uint32(i))
	}
	if &w.Payload()[0] != before {
		t.Fatal("writes within the grown capacity reallocated the buffer")
	}
	r := NewReader(w.Payload())
	if v := r.U32(); v != 7 {
		t.Fatalf("first word %d after Grow, want 7", v)
	}

	// NewWriter starts empty in a recycled buffer's storage.
	old := w.Payload()
	nw := NewWriter(old)
	nw.U8(9)
	if nw.Len() != 1 || &nw.Payload()[0] != &old[0] || old[0] != 9 {
		t.Fatalf("NewWriter on a %d-byte buffer: len %d, storage reused %v", len(old), nw.Len(), &nw.Payload()[0] == &old[0])
	}
}

func TestFileRoundTrip(t *testing.T) {
	payload := []byte("some machine state")
	h := HashContent([]byte("program"), []byte("config"))
	var buf bytes.Buffer
	if err := WriteFile(&buf, h, payload); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(bytes.NewReader(buf.Bytes()), h)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
}

func TestFileHashMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFile(&buf, HashContent([]byte("a")), []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFile(bytes.NewReader(buf.Bytes()), HashContent([]byte("b")))
	if !errors.Is(err, ErrContentHash) {
		t.Fatalf("want ErrContentHash, got %v", err)
	}
}

func TestFileBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFile(&buf, Hash{}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[0] ^= 0xFF
	_, err := ReadFile(bytes.NewReader(b), Hash{})
	if !errors.Is(err, ErrMagic) {
		t.Fatalf("want ErrMagic, got %v", err)
	}
}

func TestFileBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFile(&buf, Hash{}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[8] = 99
	_, err := ReadFile(bytes.NewReader(b), Hash{})
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

// TestFileCorruptionFuzz flips or truncates random positions and asserts a
// clean sentinel error in every case — never a panic, never silent success.
func TestFileCorruptionFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	payload := make([]byte, 4096)
	rng.Read(payload)
	h := HashContent(payload[:16])
	var buf bytes.Buffer
	if err := WriteFile(&buf, h, payload); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	for trial := 0; trial < 200; trial++ {
		b := append([]byte(nil), whole...)
		if trial%2 == 0 {
			// Truncate somewhere.
			b = b[:rng.Intn(len(b))]
		} else {
			// Flip a byte anywhere in the file.
			b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
		}
		got, err := ReadFile(bytes.NewReader(b), h)
		if err == nil {
			// A flip inside the payload must still be caught by the checksum;
			// the only acceptable "success" is a byte-identical payload (e.g.
			// a flip that restored the original — impossible with XOR != 0).
			if !bytes.Equal(got, payload) {
				t.Fatalf("trial %d: corruption accepted", trial)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrMagic) &&
			!errors.Is(err, ErrVersion) && !errors.Is(err, ErrContentHash) {
			t.Fatalf("trial %d: non-sentinel error %v", trial, err)
		}
	}
}

func TestHashContentPartBoundaries(t *testing.T) {
	if HashContent([]byte("ab"), []byte("c")) == HashContent([]byte("a"), []byte("bc")) {
		t.Fatal("part boundaries not bound into the hash")
	}
}
