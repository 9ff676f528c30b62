// Package wire provides the buffer primitives the snapshot format is built
// from: a little-endian append-only Writer and a sticky-error Reader over a
// byte slice.
//
// Bulk numeric payloads ([]int32 — partition tuple arrays, column code
// blocks, class indexes) are written 4-byte aligned relative to the start
// of the buffer, so a Reader whose buffer starts at (at least) 4-byte
// aligned memory — every Go heap allocation qualifies — can hand them back
// as zero-copy views into the buffer instead of decoding element by
// element. That aliasing is what makes snapshot reopen time proportional
// to the flagged state, not the instance: a restored relation or partition
// points straight into the snapshot's read buffer. Callers own the
// consequences: the buffer must stay reachable for as long as any decoded
// view, and views follow the same mutation discipline as the structures
// they restore (in-place cell writes are fine, the buffer is private heap
// memory; growth always reallocates because views have no spare capacity).
//
// String domains are decoded through one string conversion per slab and
// sliced into the shared backing, so restoring a dictionary of a million
// values costs one allocation, not a million.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Writer accumulates an encoded byte stream. The zero value is ready to
// use.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated encoding. The slice aliases the writer's
// buffer; further writes may invalidate it.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(u uint64) {
	w.buf = binary.AppendUvarint(w.buf, u)
}

// Int appends a non-negative int as a uvarint (panics on negative — the
// format has no accidental sign bits).
func (w *Writer) Int(i int) {
	if i < 0 {
		panic(fmt.Sprintf("wire: Int(%d) negative", i))
	}
	w.Uvarint(uint64(i))
}

// Uint32 appends a fixed-width little-endian uint32.
func (w *Writer) Uint32(u uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, u)
}

// Uint64 appends a fixed-width little-endian uint64.
func (w *Writer) Uint64(u uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, u)
}

// Bool appends one byte, 0 or 1.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// align4 pads the buffer to the next multiple of 4 bytes.
func (w *Writer) align4() {
	for len(w.buf)%4 != 0 {
		w.buf = append(w.buf, 0)
	}
}

// Int32s appends a length-prefixed []int32 as raw little-endian words,
// padded so the payload starts 4-byte aligned (the Reader's zero-copy
// contract).
func (w *Writer) Int32s(xs []int32) {
	w.Uvarint(uint64(len(xs)))
	w.align4()
	if len(xs) == 0 {
		return
	}
	off := len(w.buf)
	w.buf = append(w.buf, make([]byte, 4*len(xs))...)
	dst := w.buf[off:]
	for i, x := range xs {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(x))
	}
}

// AlignedBlob appends a length-prefixed byte slice padded so the payload
// starts 4-byte aligned — the container form for nested wire encodings,
// so their own aligned bulk reads stay aligned relative to the outer
// buffer (and therefore to memory).
func (w *Writer) AlignedBlob(b []byte) {
	w.AlignedBlobHeader(len(b), 0)
	w.buf = append(w.buf, b...)
}

// AlignedBlobHeader appends what AlignedBlob writes ahead of an n-byte
// payload — the length prefix and the padding — for a buffer that lands
// at offset base of a larger stream. It is the streamed form of
// AlignedBlob: the caller writes this buffer and then the payload itself
// straight to the stream, and the bytes equal one AlignedBlob at base.
func (w *Writer) AlignedBlobHeader(n, base int) {
	w.Uvarint(uint64(n))
	for (base+len(w.buf))%4 != 0 {
		w.buf = append(w.buf, 0)
	}
}

// Reset empties the writer and keeps its buffer for the next encoding.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Uint8s appends a length-prefixed []uint8.
func (w *Writer) Uint8s(xs []uint8) {
	w.Uvarint(uint64(len(xs)))
	w.buf = append(w.buf, xs...)
}

// StringSlab appends a string slice as count, lengths, then the
// concatenated bytes — the form Reader.StringSlab decodes with one shared
// backing allocation.
func (w *Writer) StringSlab(ss []string) {
	w.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.Uvarint(uint64(len(s)))
	}
	for _, s := range ss {
		w.buf = append(w.buf, s...)
	}
}

// Reader decodes a byte stream produced by Writer. Errors are sticky:
// after the first malformed read every subsequent read returns zero values,
// and Err reports the first failure — decode sequences check once at the
// end. Zero-copy reads alias the input buffer; see the package comment for
// the lifetime contract.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over buf. For aligned zero-copy reads, buf
// should start at 4-byte aligned memory (any Go heap allocation does).
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format+" at offset %d", append(args, r.off)...)
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return u
}

// Int reads a non-negative int written by Writer.Int.
func (r *Reader) Int() int {
	u := r.Uvarint()
	if u > math.MaxInt {
		r.fail("int overflow (%d)", u)
		return 0
	}
	return int(u)
}

// Uint32 reads a fixed-width little-endian uint32.
func (r *Reader) Uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 4 {
		r.fail("short uint32")
		return 0
	}
	u := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return u
}

// Uint64 reads a fixed-width little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail("short uint64")
		return 0
	}
	u := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return u
}

// Bool reads one byte as a bool.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.Remaining() < 1 {
		r.fail("short bool")
		return false
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		r.fail("bad bool %d", b)
		return false
	}
	return b == 1
}

// String reads a length-prefixed string. The result copies out of the
// buffer (strings written individually are small; slabs are the bulk path).
func (r *Reader) String() string {
	n := r.Int()
	if r.err != nil {
		return ""
	}
	if r.Remaining() < n {
		r.fail("short string (%d bytes)", n)
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Blob reads a length-prefixed byte slice as a zero-copy view of the
// buffer.
func (r *Reader) Blob() []byte {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.fail("short blob (%d bytes)", n)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// AlignedBlob reads a blob written by Writer.AlignedBlob as a zero-copy
// view whose first byte sits at a 4-byte aligned buffer offset.
func (r *Reader) AlignedBlob() []byte {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	r.align4()
	if r.Remaining() < n {
		r.fail("short aligned blob (%d bytes)", n)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// align4 skips padding to the next multiple of 4 bytes.
func (r *Reader) align4() {
	for r.off%4 != 0 && r.off < len(r.buf) {
		r.off++
	}
}

// Int32s reads a length-prefixed []int32. When the payload lands on 4-byte
// aligned memory (always, for buffers starting at a Go allocation) the
// result is a zero-copy view of the buffer with len == cap — appends
// reallocate, in-place writes hit the buffer; otherwise it is decoded into
// a fresh slice.
func (r *Reader) Int32s() []int32 {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	r.align4()
	if r.Remaining() < 4*n {
		r.fail("short int32 payload (%d elements)", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	raw := r.buf[r.off : r.off+4*n]
	r.off += 4 * n
	if uintptr(unsafe.Pointer(&raw[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&raw[0])), n)[:n:n]
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// Uint8s reads a length-prefixed []uint8 as a zero-copy view.
func (r *Reader) Uint8s() []uint8 {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.fail("short uint8 payload (%d elements)", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// StringSlab reads a string slice written by Writer.StringSlab: the
// concatenated bytes become one shared string and each element slices into
// it, so the whole domain costs a single allocation.
func (r *Reader) StringSlab() []string {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if r.Remaining() < n { // each length is ≥ 1 byte of varint
		r.fail("slab count %d exceeds payload", n)
		return nil
	}
	lens := make([]int, n)
	total := 0
	for i := range lens {
		lens[i] = r.Int()
		total += lens[i]
	}
	if r.err != nil {
		return nil
	}
	if r.Remaining() < total {
		r.fail("short slab payload (%d bytes)", total)
		return nil
	}
	slab := string(r.buf[r.off : r.off+total])
	r.off += total
	out := make([]string, n)
	pos := 0
	for i, l := range lens {
		out[i] = slab[pos : pos+l]
		pos += l
	}
	return out
}
