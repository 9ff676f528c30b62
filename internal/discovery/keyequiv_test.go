package discovery

import (
	"math/rand"
	"testing"

	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// keyRel builds a relation whose cell strings are drawn from data, so the
// fuzzer controls the value-id layout: ncols in 1..4, each cell one of 8
// string values chosen by successive bytes (wrapping when data runs out).
func keyRel(t testing.TB, data []byte) *relation.Relation {
	t.Helper()
	if len(data) == 0 {
		data = []byte{0}
	}
	ncols := 1 + int(data[0]%4)
	nrows := 2 + int(data[len(data)-1]%8)
	names := make([]string, ncols)
	vals := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for c := range names {
		names[c] = string(rune('A' + c))
	}
	rows := make([][]string, nrows)
	k := 0
	for r := range rows {
		row := make([]string, ncols)
		for c := range row {
			row[c] = vals[int(data[k%len(data)])%len(vals)]
			k++
		}
		rows[r] = row
	}
	rel, err := relation.FromRows(relation.MustSchema(names...), rows)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// checkKeyEquiv asserts the two key encoders agree on every row of rel
// projected on cols, and that key equality coincides with value-id tuple
// equality (injectivity of the fixed-width encoding).
func checkKeyEquiv(t testing.TB, rel *relation.Relation, cols []int) {
	t.Helper()
	var buf []byte
	keys := make([]string, rel.NumRows())
	for r := 0; r < rel.NumRows(); r++ {
		buf = live.EncodeKey(rel, cols, r, buf)
		if sk := string(live.AppendSourceKey(nil, rel, cols, nil, r)); sk != string(buf) {
			t.Fatalf("row %d cols %v: source key %v != live key %v", r, cols, []byte(sk), buf)
		}
		if len(buf) != 4*len(cols) {
			t.Fatalf("row %d cols %v: key width %d, want %d", r, cols, len(buf), 4*len(cols))
		}
		keys[r] = string(buf)
	}
	for a := 0; a < rel.NumRows(); a++ {
		for b := a + 1; b < rel.NumRows(); b++ {
			same := true
			for _, c := range cols {
				if rel.Value(a, c) != rel.Value(b, c) {
					same = false
					break
				}
			}
			if same != (keys[a] == keys[b]) {
				t.Fatalf("rows %d,%d cols %v: projection equal=%v but key equal=%v", a, b, cols, same, keys[a] == keys[b])
			}
		}
	}
}

// TestKeyEncodingCrossEngine pins the shared key-encoding contract across
// the engines: live.EncodeKey (the byte keys of class tables that cannot
// pack, and the witness keys) and live.AppendSourceKey with an empty
// write segment. Any drift would silently desynchronize the byte-keyed
// tables' moves.
func TestKeyEncodingCrossEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		data := make([]byte, 8+rng.Intn(40))
		rng.Read(data)
		rel := keyRel(t, data)
		nc := rel.NumCols()
		colSets := [][]int{}
		for c := 0; c < nc; c++ {
			colSets = append(colSets, []int{c})
		}
		all := make([]int, nc)
		for c := range all {
			all[c] = c
		}
		colSets = append(colSets, all)
		for _, cols := range colSets {
			checkKeyEquiv(t, rel, cols)
		}
	}
}

// TestSourceKeySubstitutesOldValues pins the one place the source-key
// encoding intentionally differs: given a write segment, written columns
// read the logged pre-batch value, so the key names the row's source-state
// projection even though the relation already holds the target state.
func TestSourceKeySubstitutesOldValues(t *testing.T) {
	rel, err := relation.FromRows(relation.MustSchema("A", "B", "C"), [][]string{
		{"x", "1", "p"}, {"y", "2", "q"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cols := []int{0, 2}
	// A write on column 0 of row 0: old value is row 1's value in column 0.
	seg := []cellWrite{{Row: 0, Col: 0, Old: rel.Value(1, 0), New: rel.Value(0, 0)}}
	got := string(live.AppendSourceKey(nil, rel, cols, seg, 0))
	// Expected: column 0 reads the old value, column 2 the relation.
	var want []byte
	for _, v := range []relation.Value{rel.Value(1, 0), rel.Value(0, 2)} {
		want = append(want, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	if got != string(want) {
		t.Fatalf("sourceKey with seg = %v, want %v", []byte(got), want)
	}
	// A write on a column outside cols must not affect the key.
	segOther := []cellWrite{{Row: 0, Col: 1, Old: rel.Value(1, 1), New: rel.Value(0, 1)}}
	if k := string(live.AppendSourceKey(nil, rel, cols, segOther, 0)); k != string(live.EncodeKey(rel, cols, 0, nil)) {
		t.Fatalf("write outside cols changed the key: %v", []byte(k))
	}
}

// FuzzKeyEquiv drives checkKeyEquiv with fuzzer-chosen relations and
// column subsets.
func FuzzKeyEquiv(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{0})
	f.Add([]byte{255, 254, 0, 0, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		rel := keyRel(t, data)
		nc := rel.NumCols()
		// Column subset from the second byte's bits, non-empty.
		var cols []int
		pick := byte(1)
		if len(data) > 1 {
			pick = data[1]
		}
		for c := 0; c < nc; c++ {
			if pick&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			cols = []int{0}
		}
		checkKeyEquiv(t, rel, cols)
	})
}
