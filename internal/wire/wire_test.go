package wire

import (
	"strings"
	"testing"
	"unsafe"
)

func TestRoundTripPrimitives(t *testing.T) {
	var w Writer
	w.Uvarint(0)
	w.Uvarint(1 << 40)
	w.Int(42)
	w.Uint32(0xDEADBEEF)
	w.Uint64(1 << 60)
	w.Bool(true)
	w.Bool(false)
	w.String("")
	w.String("stripped partition")
	w.Blob([]byte{1, 2, 3})
	w.Blob(nil)
	w.Int32s([]int32{-1, 0, 7, 1 << 30})
	w.Int32s(nil)
	w.Uint8s([]uint8{9, 8})
	w.AlignedBlob([]byte("payload"))
	w.StringSlab([]string{"a", "", "bcd"})

	r := NewReader(w.Bytes())
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Int(); got != 42 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Uint32(); got != 0xDEADBEEF {
		t.Fatalf("Uint32 = %x", got)
	}
	if got := r.Uint64(); got != 1<<60 {
		t.Fatalf("Uint64 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round-trip")
	}
	if got := r.String(); got != "" {
		t.Fatalf("String = %q", got)
	}
	if got := r.String(); got != "stripped partition" {
		t.Fatalf("String = %q", got)
	}
	if got := r.Blob(); string(got) != "\x01\x02\x03" {
		t.Fatalf("Blob = %v", got)
	}
	if got := r.Blob(); len(got) != 0 {
		t.Fatalf("empty Blob = %v", got)
	}
	xs := r.Int32s()
	if len(xs) != 4 || xs[0] != -1 || xs[3] != 1<<30 {
		t.Fatalf("Int32s = %v", xs)
	}
	if got := r.Int32s(); got != nil {
		t.Fatalf("empty Int32s = %v", got)
	}
	if got := r.Uint8s(); len(got) != 2 || got[0] != 9 {
		t.Fatalf("Uint8s = %v", got)
	}
	if got := r.AlignedBlob(); string(got) != "payload" {
		t.Fatalf("AlignedBlob = %q", got)
	}
	ss := r.StringSlab()
	if len(ss) != 3 || ss[0] != "a" || ss[1] != "" || ss[2] != "bcd" {
		t.Fatalf("StringSlab = %v", ss)
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
}

// TestInt32sZeroCopy pins the aliasing contract: the decoded slice views
// the reader's buffer (in-place writes land in it) and has no spare
// capacity (appends reallocate instead of clobbering what follows).
func TestInt32sZeroCopy(t *testing.T) {
	var w Writer
	w.String("skew") // odd prefix so the payload needs padding
	w.Int32s([]int32{10, 20, 30})
	w.Uint32(0xAAAA5555)

	buf := w.Bytes()
	r := NewReader(buf)
	_ = r.String()
	xs := r.Int32s()
	if uintptr(unsafe.Pointer(&xs[0]))%4 != 0 {
		t.Fatal("payload not 4-byte aligned in memory")
	}
	// View, not copy.
	xs[1] = 99
	r2 := NewReader(buf)
	_ = r2.String()
	if got := r2.Int32s()[1]; got != 99 {
		t.Fatalf("write through view not visible on re-read: %d", got)
	}
	// len == cap: growth must not overwrite the trailing uint32.
	if cap(xs) != len(xs) {
		t.Fatalf("view has spare capacity %d > len %d", cap(xs), len(xs))
	}
	_ = append(xs, 7)
	if got := r.Uint32(); got != 0xAAAA5555 {
		t.Fatalf("append clobbered the following field: %x", got)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestStringSlabSharesBacking(t *testing.T) {
	var w Writer
	w.StringSlab([]string{"alpha", "beta", "gamma"})
	ss := NewReader(w.Bytes()).StringSlab()
	if len(ss) != 3 {
		t.Fatalf("len = %d", len(ss))
	}
	// All elements slice one backing string: their data pointers sit inside
	// a single total-length window.
	base := unsafe.StringData(ss[0])
	last := unsafe.StringData(ss[2])
	if uintptr(unsafe.Pointer(last))-uintptr(unsafe.Pointer(base)) != uintptr(len("alphabeta")) {
		t.Fatal("slab elements do not share one backing allocation")
	}
}

// TestReaderStickyErrors: every truncated read must set the error once,
// and every subsequent read returns zero values without panicking.
func TestReaderStickyErrors(t *testing.T) {
	cases := []struct {
		name  string
		write func(w *Writer)
		read  func(r *Reader)
	}{
		{"uvarint", func(w *Writer) { w.Uvarint(1 << 40) }, func(r *Reader) { r.Uvarint() }},
		{"uint32", func(w *Writer) { w.Uint32(5) }, func(r *Reader) { r.Uint32() }},
		{"uint64", func(w *Writer) { w.Uint64(5) }, func(r *Reader) { r.Uint64() }},
		{"bool", func(w *Writer) { w.Bool(true) }, func(r *Reader) { r.Bool() }},
		{"string", func(w *Writer) { w.String("hello") }, func(r *Reader) { _ = r.String() }},
		{"blob", func(w *Writer) { w.Blob([]byte("hello")) }, func(r *Reader) { r.Blob() }},
		{"alignedblob", func(w *Writer) { w.AlignedBlob([]byte("hello")) }, func(r *Reader) { r.AlignedBlob() }},
		{"int32s", func(w *Writer) { w.Int32s([]int32{1, 2, 3}) }, func(r *Reader) { r.Int32s() }},
		{"uint8s", func(w *Writer) { w.Uint8s([]uint8{1, 2, 3}) }, func(r *Reader) { r.Uint8s() }},
		{"stringslab", func(w *Writer) { w.StringSlab([]string{"hello", "world"}) }, func(r *Reader) { r.StringSlab() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w Writer
			tc.write(&w)
			full := w.Bytes()
			for cut := 0; cut < len(full); cut++ {
				r := NewReader(full[:cut])
				tc.read(r)
				if r.Err() == nil {
					t.Fatalf("cut at %d/%d: no error", cut, len(full))
				}
				// Sticky: later reads return zeros, not garbage or panics.
				if r.Uint32() != 0 || r.String() != "" || r.Int32s() != nil {
					t.Fatalf("cut at %d: reads after error returned data", cut)
				}
			}
		})
	}
}

func TestReaderBadValues(t *testing.T) {
	r := NewReader([]byte{2}) // Bool byte out of range
	r.Bool()
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "bad bool") {
		t.Fatalf("err = %v", r.Err())
	}

	// Slab whose element lengths exceed the payload.
	var w Writer
	w.Uvarint(1)    // one string
	w.Uvarint(1000) // claimed length
	r = NewReader(w.Bytes())
	if r.StringSlab() != nil || r.Err() == nil {
		t.Fatal("oversized slab length not rejected")
	}
}

func TestIntPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int(-1) did not panic")
		}
	}()
	var w Writer
	w.Int(-1)
}

// TestAlignedBlobNesting: a nested encoding placed with AlignedBlob must
// keep its own Int32s payloads aligned relative to memory, so the nested
// reader still decodes them zero-copy.
func TestAlignedBlobNesting(t *testing.T) {
	var inner Writer
	inner.String("x") // odd offset inside the nested buffer
	inner.Int32s([]int32{5, 6, 7})

	var outer Writer
	outer.String("hdr") // misalign the outer stream
	outer.AlignedBlob(inner.Bytes())

	r := NewReader(outer.Bytes())
	_ = r.String()
	nested := NewReader(r.AlignedBlob())
	_ = nested.String()
	xs := nested.Int32s()
	if nested.Err() != nil {
		t.Fatal(nested.Err())
	}
	if len(xs) != 3 || xs[2] != 7 {
		t.Fatalf("nested Int32s = %v", xs)
	}
	if uintptr(unsafe.Pointer(&xs[0]))%4 != 0 {
		t.Fatal("nested payload lost alignment")
	}
}

// TestAlignedBlobHeaderStreams: a header written for a stream offset,
// followed by the payload, must equal AlignedBlob at that offset — for
// every residue of the offset mod 4 and payloads of odd length.
func TestAlignedBlobHeaderStreams(t *testing.T) {
	payload := []byte("nested")
	for base := 0; base < 8; base++ {
		var whole Writer
		for i := 0; i < base; i++ {
			whole.Bool(false)
		}
		whole.AlignedBlob(payload)

		var hdr Writer
		hdr.AlignedBlobHeader(len(payload), base)
		streamed := append(append(append([]byte(nil), whole.Bytes()[:base]...), hdr.Bytes()...), payload...)
		if string(streamed) != string(whole.Bytes()) {
			t.Fatalf("base %d: streamed % x, want % x", base, streamed, whole.Bytes())
		}
		hdr.Reset()
		if hdr.Len() != 0 {
			t.Fatalf("Reset left %d bytes", hdr.Len())
		}
	}
}
