// Package ckpt defines the on-disk checkpoint container and the low-level
// serialization primitives the simulator's state savers build on.
//
// A checkpoint file is a self-describing framed binary:
//
//	offset  size  field
//	0       8     magic "TRIPSCKP"
//	8       4     format version (little-endian u32)
//	12      32    content hash: sha256 over the (program, config) identity
//	44      8     payload length (little-endian u64)
//	52      n     payload (written by the component SaveState methods)
//	52+n    32    sha256 of the payload
//
// The content hash binds a checkpoint to the exact program image and
// simulator configuration that produced it: restoring onto a mismatched
// build fails loudly (ErrContentHash) instead of silently diverging.
// The trailing payload checksum catches corruption and truncation.
//
// Within the payload, Writer/Reader provide little-endian primitives with
// a sticky error model: every Reader accessor bounds-checks, and the first
// failure poisons the reader so callers can decode a whole section and
// check Err() once. Section markers (a tag byte plus the section name)
// are interleaved with the data so a reader/writer drift fails at the
// mismatched section name instead of producing garbage state.
package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Version is the current checkpoint format version. Bump it whenever the
// payload layout changes; old files then fail with ErrVersion.
const Version = 2

var magic = [8]byte{'T', 'R', 'I', 'P', 'S', 'C', 'K', 'P'}

// Sentinel errors for the failure modes a restore can hit. All errors
// returned by ReadFile wrap one of these.
var (
	ErrMagic       = errors.New("ckpt: not a TRIPS checkpoint (bad magic)")
	ErrVersion     = errors.New("ckpt: unsupported checkpoint version")
	ErrContentHash = errors.New("ckpt: checkpoint does not match this program/config")
	ErrCorrupt     = errors.New("ckpt: checkpoint corrupted or truncated")
)

// maxPayload bounds how much ReadFile will allocate for a payload; real
// checkpoints are a few MB, so 1 GiB means a corrupted length field fails
// cleanly instead of attempting an absurd allocation.
const maxPayload = 1 << 30

// Hash is the 32-byte content hash binding a checkpoint to its origin.
type Hash [32]byte

func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// HashContent folds the given byte chunks into a content hash. Callers
// pass the program image plus a canonical rendering of the configuration.
func HashContent(parts ...[]byte) Hash {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		// Length-prefix each part so ("ab","c") and ("a","bc") differ.
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// WriteFile frames the payload and writes the complete checkpoint to w.
func WriteFile(w io.Writer, content Hash, payload []byte) error {
	hdr := make([]byte, 0, 52)
	hdr = append(hdr, magic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, Version)
	hdr = append(hdr, content[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("ckpt: writing header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("ckpt: writing payload: %w", err)
	}
	sum := sha256.Sum256(payload)
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("ckpt: writing checksum: %w", err)
	}
	noteWrite(len(hdr) + len(payload) + len(sum))
	return nil
}

// ReadFile validates the framing and returns the payload. The caller's
// expected content hash must match the one recorded in the file; pass the
// hash computed from the restoring run's own program and config.
func ReadFile(r io.Reader, want Hash) ([]byte, error) {
	var hdr [52]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if [8]byte(hdr[0:8]) != magic {
		return nil, ErrMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != Version {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersion, v, Version)
	}
	var got Hash
	copy(got[:], hdr[12:44])
	if got != want {
		stats.hashFailures.Add(1)
		return nil, fmt.Errorf("%w: file was taken with %s, this run is %s", ErrContentHash, got, want)
	}
	stats.hashChecks.Add(1)
	n := binary.LittleEndian.Uint64(hdr[44:52])
	if n > maxPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	var sum [32]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: checksum: %v", ErrCorrupt, err)
	}
	if sum != sha256.Sum256(payload) {
		stats.hashFailures.Add(1)
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	stats.hashChecks.Add(1)
	noteRead(len(hdr) + len(payload) + len(sum))
	return payload, nil
}

// Writer accumulates a payload in memory. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter starts an empty payload in buf's storage, discarding buf's
// contents, so a caller can recycle the buffer of a frame it is done with.
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf[:0]} }

// Payload returns the accumulated payload.
func (w *Writer) Payload() []byte { return w.buf }

// Reset truncates the payload to zero length, keeping the allocated buffer
// for reuse. The flight recorder's rolling ring recycles slot buffers this
// way so steady-state captures stop allocating once the ring warms up.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Grow guarantees room for another n bytes without reallocating. Callers
// that save similar frames back to back (RunSampled's profiling pass) size
// the next frame from the previous one, so a save does not regrow its
// buffer from empty.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

const sectionTag = 0xA5

// Section writes a named marker. Pair with Reader.Section to catch
// writer/reader drift at the point of divergence.
func (w *Writer) Section(name string) {
	w.buf = append(w.buf, sectionTag)
	w.String(name)
}

func (w *Writer) U8(v uint8)   { w.buf = append(w.buf, v) }
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) I64(v int64)  { w.U64(uint64(v)) }

// Int writes a host int as 64 bits.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes writes a length-prefixed byte slice (nil writes length 0).
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes a payload produced by Writer. The first decoding failure
// sticks: every later accessor returns a zero value, so callers can decode
// a whole section and check Err once.
type Reader struct {
	buf   []byte
	off   int
	err   error
	maxID uint64
}

// NewReader wraps a payload for decoding.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Err reports the first decoding failure, if any.
func (r *Reader) Err() error { return r.err }

// NoteID records an allocator-issued id decoded from the payload; MaxID
// returns the largest noted so far. Restore paths use the pair to resume
// host-side id allocators (message trace ids) past every restored id, so
// ids allocated after a restore never collide with ids still in flight.
func (r *Reader) NoteID(id uint64) {
	if id > r.maxID {
		r.maxID = id
	}
}

// MaxID returns the largest id recorded by NoteID.
func (r *Reader) MaxID() uint64 { return r.maxID }

// Remaining returns how many undecoded bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Failf records a structural mismatch discovered by the caller (for
// example, a serialized count that disagrees with the live topology) as a
// sticky corruption error. Subsequent accessors return zero values.
func (r *Reader) Failf(format string, args ...any) {
	r.fail(format, args...)
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format+" (offset %d)", append(append([]any{ErrCorrupt}, args...), r.off)...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) || n < 0 {
		r.fail("need %d bytes, have %d", n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Section checks the next bytes are a marker for the named section.
func (r *Reader) Section(name string) {
	if r.err != nil {
		return
	}
	at := r.off
	tag := r.U8()
	if r.err == nil && tag != sectionTag {
		r.off = at
		r.fail("expected section %q, found data", name)
		return
	}
	got := r.String()
	if r.err == nil && got != name {
		r.fail("expected section %q, found %q", name, got)
	}
}

func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads a value written with Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

func (r *Reader) Bool() bool { return r.U8() != 0 }

// Bytes reads a length-prefixed byte slice. The result is a fresh copy.
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U32())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Close asserts the payload was fully consumed; trailing bytes mean the
// reader and writer disagree about the layout.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		r.fail("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}
