package core

import (
	"strings"
	"testing"

	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// FuzzParse checks that the OFD parser never panics and that successful
// parses round-trip through Format.
func FuzzParse(f *testing.F) {
	schema := relation.MustSchema("A", "B", "C", "D")
	f.Add("A -> B")
	f.Add("A,B -> C")
	f.Add(" A , C ->  D ")
	f.Add("-> A")
	f.Add("A -> ")
	f.Add("A -> B -> C")
	f.Add("Z -> B")
	f.Fuzz(func(t *testing.T, s string) {
		d, err := Parse(schema, s)
		if err != nil {
			return
		}
		// A successful parse must reference valid attributes and format
		// into a string that re-parses to the same dependency.
		if d.RHS < 0 || d.RHS >= schema.Len() {
			t.Fatalf("parsed RHS out of range: %v from %q", d, s)
		}
		formatted := d.Format(schema)
		back, err := Parse(schema, formatted)
		if err != nil {
			t.Fatalf("formatted %q does not re-parse: %v", formatted, err)
		}
		if back != d {
			t.Fatalf("round trip mismatch: %v -> %q -> %v", d, formatted, back)
		}
	})
}

// FuzzClosure checks that Closure never panics and respects its laws for
// arbitrary dependency sets.
func FuzzClosure(f *testing.F) {
	f.Add(uint16(0b101), uint8(2), uint16(0b11))
	f.Fuzz(func(t *testing.T, lhsBits uint16, rhs uint8, xBits uint16) {
		n := 8
		mask := relation.AttrSet(uint64(1)<<uint(n) - 1)
		sigma := Set{{LHS: relation.AttrSet(lhsBits) & mask, RHS: int(rhs) % n}}
		x := relation.AttrSet(xBits) & mask
		cl := Closure(sigma, x)
		if !x.SubsetOf(cl) {
			t.Fatal("closure not extensive")
		}
		if !cl.SubsetOf(mask) {
			t.Fatal("closure out of schema")
		}
	})
}

// FuzzCSV checks the CSV codec round-trips arbitrary cell content.
func FuzzCSV(f *testing.F) {
	f.Add("a", "b,with,commas", "c\nnewline")
	f.Add("", "\"quoted\"", "unicode✓")
	f.Fuzz(func(t *testing.T, c1, c2, c3 string) {
		// csv package cannot represent \r\n differences losslessly in all
		// cases; normalize like encoding/csv readers do.
		norm := func(s string) string { return strings.ReplaceAll(s, "\r\n", "\n") }
		c1, c2, c3 = norm(c1), norm(c2), norm(c3)
		if strings.ContainsRune(c1, '\r') || strings.ContainsRune(c2, '\r') || strings.ContainsRune(c3, '\r') {
			t.Skip("bare carriage returns are not CSV-representable")
		}
		schema := relation.MustSchema("X", "Y", "Z")
		rel, err := relation.FromRows(schema, [][]string{{c1, c2, c3}})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := relation.WriteCSV(&sb, rel); err != nil {
			t.Fatal(err)
		}
		back, err := relation.ReadCSV(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("round trip parse failed: %v (payload %q)", err, sb.String())
		}
		if d, _ := rel.DiffCells(back); d != 0 {
			t.Fatalf("round trip changed %d cells (%q %q %q)", d, c1, c2, c3)
		}
	})
}

// FuzzLHSKey fuzzes the monitor's LHS-key byte encoding for injectivity:
// two antecedent tuples encode to the same key iff they are equal
// component-wise. The fixed 4-bytes-per-attribute layout makes keys over
// one attribute list prefix-free — no value-id pair can bleed across a
// cell boundary — which is exactly what the distinct-tuples-never-collide
// guarantee of the monitor's LHS indexes rests on.
func FuzzLHSKey(f *testing.F) {
	f.Add(int32(0), int32(0), int32(0), int32(0))
	f.Add(int32(1), int32(0x100), int32(0x100), int32(1))
	f.Add(int32(0xFF), int32(0xFFFF), int32(0xFFFFFF), int32(1<<31-1))
	f.Add(int32(-1), int32(-1), int32(7), int32(7)) // NullValue cells
	f.Fuzz(func(t *testing.T, a0, a1, b0, b1 int32) {
		schema := relation.MustSchema("A", "B", "C")
		rel, err := relation.FromRows(schema, [][]string{
			{"x", "x", "x"},
			{"x", "x", "x"},
		})
		if err != nil {
			t.Fatal(err)
		}
		rel.SetValue(0, 0, relation.Value(a0))
		rel.SetValue(0, 1, relation.Value(a1))
		rel.SetValue(1, 0, relation.Value(b0))
		rel.SetValue(1, 1, relation.Value(b1))
		cols := []int{0, 1}
		ka := string(live.EncodeKey(rel, cols, 0, nil))
		kb := string(live.EncodeKey(rel, cols, 1, nil))
		equal := a0 == b0 && a1 == b1
		if (ka == kb) != equal {
			t.Fatalf("injectivity broken: (%d,%d) vs (%d,%d) keys %x vs %x", a0, a1, b0, b1, ka, kb)
		}
		if len(ka) != 8 {
			t.Fatalf("key not fixed-width: %d bytes", len(ka))
		}
		// Re-encoding is deterministic and buffer-reuse-safe.
		if again := string(live.EncodeKey(rel, cols, 0, make([]byte, 3))); again != ka {
			t.Fatalf("re-encode differs: %x vs %x", again, ka)
		}
	})
}
