package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"regexp"
	"slices"
	"strings"
)

// This file attributes a CPU profile's samples to the simulator's layers.
// runtime/pprof writes a gzipped profile.proto; the few messages needed
// (Sample, Location, Line, Function, the string table) are decoded by hand
// so the benchmark needs nothing beyond the standard library.

// frame is one (possibly inlined) function in a sample's stack.
type frame struct {
	fn, file string
}

// cpuProfile is a decoded CPU profile: one stack per sample, leaf first,
// with the CPU time the sample stands for.
type cpuProfile struct {
	stacks [][]frame
	nanos  []int64
}

// protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

// field is one decoded protobuf field: v for varints, b for length-delimited.
type field struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

// fields decodes a protobuf message into its fields.
func fields(msg []byte) ([]field, error) {
	var out []field
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		msg = msg[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case wireVarint:
			f.v, n = binary.Uvarint(msg)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case wireBytes:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case wireI64:
			if len(msg) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			f.v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case wireI32:
			if len(msg) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			f.v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f field) varints() ([]uint64, error) {
	if f.wire == wireVarint {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// Field numbers of profile.proto.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID       = 1
	funcName     = 2
	funcFilename = 4

	valueType = 2 // ValueType.unit
)

// parseCPUProfile decodes a gzipped CPU profile as runtime/pprof writes it.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	var sampleTypes, samples, locs, funcs [][]byte
	for _, f := range top {
		switch f.num {
		case profSampleType:
			sampleTypes = append(sampleTypes, f.b)
		case profSample:
			samples = append(samples, f.b)
		case profLocation:
			locs = append(locs, f.b)
		case profFunction:
			funcs = append(funcs, f.b)
		case profStrings:
			strs = append(strs, string(f.b))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// The CPU time is the sample value whose unit is nanoseconds.
	nsIndex := -1
	for i, st := range sampleTypes {
		fs, err := fields(st)
		if err != nil {
			return nil, err
		}
		for _, f := range fs {
			if f.num == valueType && f.wire == wireVarint && str(f.v) == "nanoseconds" {
				nsIndex = i
			}
		}
	}
	if nsIndex < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	fnByID := map[uint64]frame{}
	for _, m := range funcs {
		fs, err := fields(m)
		if err != nil {
			return nil, err
		}
		var id uint64
		var fr frame
		for _, f := range fs {
			switch f.num {
			case funcID:
				id = f.v
			case funcName:
				fr.fn = str(f.v)
			case funcFilename:
				fr.file = str(f.v)
			}
		}
		fnByID[id] = fr
	}
	// A location's lines run from the innermost inlined function outward.
	locByID := map[uint64][]frame{}
	for _, m := range locs {
		fs, err := fields(m)
		if err != nil {
			return nil, err
		}
		var id uint64
		var frames []frame
		for _, f := range fs {
			switch f.num {
			case locID:
				id = f.v
			case locLine:
				lf, err := fields(f.b)
				if err != nil {
					return nil, err
				}
				for _, l := range lf {
					if l.num == lineFunction {
						frames = append(frames, fnByID[l.v])
					}
				}
			}
		}
		locByID[id] = frames
	}
	p := &cpuProfile{}
	for _, m := range samples {
		fs, err := fields(m)
		if err != nil {
			return nil, err
		}
		var stack []frame
		var values []uint64
		for _, f := range fs {
			switch f.num {
			case sampleLocation:
				ids, err := f.varints()
				if err != nil {
					return nil, err
				}
				for _, id := range ids {
					stack = append(stack, locByID[id]...)
				}
			case sampleValue:
				vs, err := f.varints()
				if err != nil {
					return nil, err
				}
				values = append(values, vs...)
			}
		}
		if nsIndex >= len(values) {
			return nil, errors.New("profile: sample without CPU time")
		}
		p.stacks = append(p.stacks, stack)
		p.nanos = append(p.nanos, int64(values[nsIndex]))
	}
	return p, nil
}

// Layers. Every trips/internal package maps to one; the five proc tile
// kinds, the core's stepping loop and the bounded-lag coordinator are
// separate layers, and every package's checkpoint codec (its state.go)
// counts as ckpt. Go runtime time splits into GC, allocation, copying and
// scheduling; other runtime and standard-library helpers count toward the
// simulator layer that called them.
var layerNames = []string{
	"proc.gt", "proc.it", "proc.rt", "proc.et", "proc.dt", "proc.core", "proc.lag",
	"micronet", "nuca", "cache", "lsq", "mem", "predictor", "critpath", "alpha",
	"tcc", "tir", "workloads", "isa", "chip", "ckpt", "eval",
	"obs", "flight", "tasm", "area",
	"runtime.gc", "runtime.alloc", "runtime.copy", "runtime.sched",
	"bench", "other",
}

// packageLayers maps a trips/internal package to its layer (simLayer splits
// proc further).
var packageLayers = map[string]string{
	"alpha": "alpha", "area": "area", "cache": "cache", "chip": "chip",
	"ckpt": "ckpt", "critpath": "critpath", "eval": "eval", "flight": "flight",
	"isa": "isa", "lsq": "lsq", "mem": "mem", "micronet": "micronet",
	"nuca": "nuca", "obs": "obs", "predictor": "predictor", "proc": "proc.core",
	"tasm": "tasm", "tcc": "tcc", "tir": "tir", "workloads": "workloads",
}

// tileFiles maps proc source files to the tile kind they implement.
var tileFiles = map[string]string{
	"gt.go": "proc.gt", "it.go": "proc.it", "rt.go": "proc.rt",
	"et.go": "proc.et", "dt.go": "proc.dt", "lag.go": "proc.lag",
}

var tileReceiver = regexp.MustCompile(`^trips/internal/proc\.\(\*?([a-z]+)Tile\)`)

const internalPrefix = "trips/internal/"

// simLayer returns the layer of a simulator frame, "other" for a
// trips/internal package without one, and "" for a frame outside the
// simulator.
func simLayer(f frame) string {
	if !strings.HasPrefix(f.fn, internalPrefix) {
		return ""
	}
	rest := f.fn[len(internalPrefix):]
	pkg := rest[:strings.IndexAny(rest+".", "./")]
	layer, ok := packageLayers[pkg]
	if !ok {
		return "other"
	}
	base := path.Base(f.file)
	if base == "state.go" {
		return "ckpt"
	}
	if pkg != "proc" {
		return layer
	}
	if m := tileReceiver.FindStringSubmatch(f.fn); m != nil {
		if l := "proc." + m[1]; slices.Contains(layerNames, l) {
			return l
		}
	}
	if l, ok := tileFiles[base]; ok {
		return l
	}
	return layer
}

// Runtime function families, matched against the runtime frames of a stack.
var (
	gcFuncs = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.gcStart", "runtime.gcMark", "runtime.markroot", "runtime.scanobject",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.deductSweepCredit", "runtime.wbBufFlush", "runtime.gcWriteBarrier",
		"runtime._GC",
	}
	copyFuncs = []string{
		"runtime.memmove", "runtime.duffcopy", "runtime.duffzero",
		"runtime.typedmemmove", "runtime.typedslicecopy", "runtime.memclrNoHeapPointers",
		"runtime.memclrHasPointers", "runtime.bulkBarrierPreWrite", "runtime.wbMove",
	}
	allocFuncs = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
		"runtime.makeslice", "runtime.growslice", "runtime.makemap",
		"runtime.rawstring", "runtime.rawbyteslice",
	}
	schedFuncs = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.park_m",
		"runtime.gopark", "runtime.goready", "runtime.chansend", "runtime.chanrecv",
		"runtime.selectgo", "runtime.semacquire", "runtime.semrelease", "runtime.lock",
		"runtime.unlock", "runtime.futex", "runtime.notesleep", "runtime.notewakeup",
		"runtime.usleep", "runtime.osyield", "runtime.sysmon",
		"runtime.newproc", "runtime.entersyscall", "runtime.exitsyscall",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.runqgrab",
		"runtime._System", "runtime._ExternalCode", "runtime._LostExternalCode",
		"runtime._VDSO", "runtime.procyield", "sync.",
	}
)

func isRuntime(f frame) bool {
	return strings.HasPrefix(f.fn, "runtime.") || strings.HasPrefix(f.fn, "internal/runtime/")
}

func anyPrefix(stack []frame, prefixes []string) bool {
	for _, f := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(f.fn, p) {
				return true
			}
		}
	}
	return false
}

// layerOf attributes one sample's stack (leaf first) to a layer.
func layerOf(stack []frame) string {
	if len(stack) == 0 {
		return "runtime.sched"
	}
	if isRuntime(stack[0]) || strings.HasPrefix(stack[0].fn, "sync.") {
		switch {
		case anyPrefix(stack, gcFuncs):
			return "runtime.gc"
		case anyPrefix(stack, allocFuncs):
			return "runtime.alloc"
		case anyPrefix(stack[:1], copyFuncs):
			return "runtime.copy"
		case anyPrefix(stack, schedFuncs):
			return "runtime.sched"
		}
	}
	for _, f := range stack {
		if l := simLayer(f); l != "" {
			return l
		}
	}
	if isRuntime(stack[0]) {
		return "runtime.sched"
	}
	return "bench"
}

// layerShares returns each layer's share of the profile's CPU time, in
// percent.
func layerShares(p *cpuProfile) (map[string]float64, error) {
	var total int64
	by := map[string]int64{}
	for i, st := range p.stacks {
		by[layerOf(st)] += p.nanos[i]
		total += p.nanos[i]
	}
	if total == 0 {
		return nil, errors.New("profile: no CPU samples")
	}
	out := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		out[l] = 100 * float64(by[l]) / float64(total)
	}
	return out, nil
}
