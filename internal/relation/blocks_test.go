package relation

import "testing"

func TestColAppendAcrossBlockSeal(t *testing.T) {
	var c Col
	n := BlockSize + 100
	for i := 0; i < n; i++ {
		c.Append(Value(i))
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	if c.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2", c.NumBlocks())
	}
	for _, i := range []int{0, BlockSize - 1, BlockSize, n - 1} {
		if got := c.At(i); got != Value(i) {
			t.Fatalf("At(%d) = %d, want %d", i, got, i)
		}
	}
	if got := len(c.Block(0)); got != BlockSize {
		t.Fatalf("sealed block length %d, want %d", got, BlockSize)
	}
	if got := len(c.Block(1)); got != 100 {
		t.Fatalf("tail block length %d, want 100", got)
	}
}

func TestColSealedBlockStableUnderAppend(t *testing.T) {
	var c Col
	for i := 0; i < BlockSize; i++ {
		c.Append(Value(i))
	}
	sealed := c.Block(0)
	// A view captured at the seal must stay valid (same backing array,
	// same values) through arbitrary later appends.
	for i := 0; i < 3*BlockSize; i++ {
		c.Append(Value(-1))
	}
	if &sealed[0] != &c.Block(0)[0] {
		t.Fatal("sealed block reallocated by later appends")
	}
	for _, i := range []int{0, 1, BlockSize - 1} {
		if sealed[i] != Value(i) {
			t.Fatalf("sealed[%d] changed to %d", i, sealed[i])
		}
	}
	// In-place Set must still reach sealed cells (cell updates mutate,
	// sealing freezes identity and length only).
	c.Set(1, 42)
	if sealed[1] != 42 {
		t.Fatalf("Set through chain missed the sealed block: %d", sealed[1])
	}
}

func TestColAppendBlockRestore(t *testing.T) {
	full := make([]Value, BlockSize)
	for i := range full {
		full[i] = Value(i)
	}
	short := []Value{7, 8, 9}
	var c Col
	c.appendBlock(full)
	c.appendBlock(short)
	if c.Len() != BlockSize+3 {
		t.Fatalf("Len = %d, want %d", c.Len(), BlockSize+3)
	}
	if c.At(BlockSize+2) != 9 || c.At(5) != 5 {
		t.Fatal("restored cells wrong")
	}
	// The short tail must extend in place up to the seal.
	c.Append(10)
	if c.At(BlockSize+3) != 10 {
		t.Fatal("append after restore failed")
	}
	// Adopting a block onto an open tail is a programming error.
	defer func() {
		if recover() == nil {
			t.Fatal("appendBlock on an open tail did not panic")
		}
	}()
	c.appendBlock(full)
}

func TestColCloneIsDeep(t *testing.T) {
	var c Col
	for i := 0; i < BlockSize+10; i++ {
		c.Append(Value(i))
	}
	cl := c.clone()
	cl.Set(0, 99)
	cl.Set(BlockSize+5, 99)
	if c.At(0) != 0 || c.At(BlockSize+5) != Value(BlockSize+5) {
		t.Fatal("clone shares blocks with the original")
	}
	cl.Append(123)
	if c.Len() != BlockSize+10 {
		t.Fatal("clone append changed the original's length")
	}
}
