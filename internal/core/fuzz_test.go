package core

import (
	"fmt"
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

// FuzzLHSKey fuzzes the class tables' keys (live.Table) over 1–6
// antecedent columns, packed and byte layouts alike: two rows join one
// class, or one row finds the other's lone-row key, iff their code tuples
// are equal, NullValue included. The fuzz bytes choose the column count,
// each column's dictionary size, whether the dictionaries are wide
// (4,096 values each, which overflows 64 bits of lanes from five columns
// on), and every cell's code. The table is then re-laid out: each column's
// dictionary grows past its lane, one column of every third row is
// rewritten to a code past the old lane, and Apply rebuilds the keys
// from the write log's source state before the rows move; the same
// equivalence must hold after the moves, and again after Undo and the
// writes' revert.
func FuzzLHSKey(f *testing.F) {
	f.Add([]byte{0, 2, 0, 0, 1, 1, 0, 0})                      // one column, a NullValue pair
	f.Add([]byte{1, 3, 5, 1, 2, 3, 1, 2, 3, 0, 0, 4})          // two columns
	f.Add([]byte{0x85, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5}) // six wide columns: byte keys
	f.Add([]byte{0x84, 0xff, 0xfe, 0, 1, 0xff, 0xfe, 0, 1})    // five wide columns
	f.Add([]byte{0x03, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // four columns of NullValue
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ncols := 1 + int(data[0]&7)%6
		wide := data[0]&0x80 != 0
		names := make([]string, ncols)
		for c := range names {
			names[c] = fmt.Sprint("C", c)
		}
		rel := relation.New(relation.MustSchema(names...))
		size := make([]int, ncols)
		for c := range size {
			size[c] = 1 + int(data[(1+c)%len(data)])%5
			if wide {
				size[c] = 4096
			}
			for v := 0; v < size[c]; v++ {
				rel.Dict(c).Intern(fmt.Sprint(v))
			}
		}
		// Each cell's code is drawn from the next two bytes: a code of the
		// column's dictionary, or NullValue.
		k := 0
		code := func(c int) relation.Value {
			x := int(data[k%len(data)])<<8 | int(data[(k+1)%len(data)])
			k += 2
			if x%7 == 6 {
				return relation.NullValue
			}
			return relation.Value(x % size[c])
		}
		nrows := 2 + len(data)/ncols%16
		for r := 0; r < nrows; r++ {
			rel.AppendRow(make([]string, ncols))
			for c := 0; c < ncols; c++ {
				rel.SetValue(r, c, code(c))
			}
		}
		cols := make([]int, ncols)
		for c := range cols {
			cols[c] = c
		}
		tb := live.NewTable(rel, cols, false)
		span := 1.0
		for c := range cols {
			span *= float64(2 * (size[c] + 1))
		}
		if tb.Packed() != (span < 1<<64) {
			t.Fatalf("%d columns of %v values: packed %v", ncols, size, tb.Packed())
		}
		tb.Append(rel, 0, nrows)
		checkTableKeys(t, "built", rel, tb)

		// Outgrow every lane, and rewrite one fuzz-chosen column of every
		// third row to a code the old lane cannot hold: under the old
		// layout it would carry into the next lane and collide.
		var writes []CellWrite
		for c := range cols {
			for v := size[c]; v < 2*size[c]+3; v++ {
				rel.Dict(c).Intern(fmt.Sprint(v))
			}
		}
		for r := 0; r < nrows; r += 3 {
			c := int(data[r%len(data)]) % ncols
			old := rel.Value(r, c)
			nv := relation.Value(2*size[c] + 1 + int(data[(r+1)%len(data)])%2)
			rel.SetValue(r, c, nv)
			writes = append(writes, CellWrite{Row: r, Col: c, Old: old, New: nv})
		}
		tb.Apply(rel, writes)
		span = 1.0
		for c := range cols {
			span *= float64(2 * (rel.Dict(c).Size() + 1))
		}
		if tb.Packed() != (span < 1<<64) {
			t.Fatalf("re-laid out over dictionaries of %v values: packed %v", size, tb.Packed())
		}
		checkTableKeys(t, "moved", rel, tb)
		// Undo the moves under the new layout, then the writes: the table
		// keys every row as the build did.
		tb.Undo(rel, writes)
		for _, wr := range writes {
			rel.SetValue(wr.Row, wr.Col, wr.Old)
		}
		checkTableKeys(t, "undone", rel, tb)
	})
}

// checkTableKeys asserts that rows share a class, or a lone row holds a
// key another row maps to, exactly when their code tuples are equal.
func checkTableKeys(t *testing.T, label string, rel *relation.Relation, tb *live.Table) {
	t.Helper()
	n := rel.NumRows()
	tuple := func(r int) string { return string(live.AppendKey(nil, rel, tb.Cols, r)) }
	for a := 0; a < n; a++ {
		enc, ok := tb.Lookup(rel, a)
		if !ok {
			t.Fatalf("%s: row %d's key is missing", label, a)
		}
		if ca := tb.RowClass[a]; (ca >= 0 && enc != ca) || (ca < 0 && enc != live.LoneRow(int32(a))) {
			t.Fatalf("%s: row %d in class %d, its key maps to %d", label, a, ca, enc)
		}
		for b := a + 1; b < n; b++ {
			same := tb.RowClass[a] >= 0 && tb.RowClass[a] == tb.RowClass[b]
			if equal := tuple(a) == tuple(b); same != equal {
				t.Fatalf("%s: rows %d and %d: equal tuples %v, one class %v (%s layout)", label, a, b, equal, same, map[bool]string{true: "packed", false: "byte"}[tb.Packed()])
			}
		}
	}
}
