package core

import (
	"context"
	"reflect"
	"testing"

	"github.com/fastofd/fastofd/internal/relation"
)

// TestSubstrateUndoEvicts pins the cache side of the substrate's write
// path: after a batch is applied, read through and undone — and after
// rows are appended — the cache serves every lattice set byte-identical
// to a fresh partition of the current relation. The batch's reads cache
// partitions of a state Undo discards, so Undo must evict them again.
func TestSubstrateUndoEvicts(t *testing.T) {
	rel, ont := table1(t)
	sub, err := NewSubstrate(context.Background(), rel, ont, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := sub.Cache()
	top := relation.AttrSet(uint64(1)<<uint(rel.NumCols()) - 1)
	readAll := func() {
		for s := relation.AttrSet(1); s <= top; s++ {
			pc.Get(s)
		}
	}
	check := func(stage string) {
		t.Helper()
		for s := relation.AttrSet(1); s <= top; s++ {
			got := pc.Get(s)
			want := relation.PartitionOf(rel, s).Strip()
			if !reflect.DeepEqual(got.Tuples, want.Tuples) || !reflect.DeepEqual(got.Offsets, want.Offsets) {
				t.Fatalf("%s: cache serves wrong partition for %v\n got: %v %v\nwant: %v %v",
					stage, s, got.Tuples, got.Offsets, want.Tuples, want.Offsets)
			}
		}
	}

	readAll()
	batch := []CellUpdate{
		{Row: 1, Col: 0, Value: "US"},  // CC: IN → US
		{Row: 4, Col: 1, Value: "USA"}, // CTRY: America → USA
	}
	if err := sub.Apply(batch); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(sub.Writes()) != len(batch) {
		t.Fatalf("Apply logged %d writes, want %d", len(sub.Writes()), len(batch))
	}
	readAll() // as the repair verifier would, mid-batch
	sub.Undo()
	check("undo")

	if err := sub.Append([][]string{
		{"IN", "India", "nausea", "EEG", "migrane", "analgesic"},
		{"CA", "Canada", "headache", "MRI", "hypertension", "cartia"},
	}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	check("append")
}
