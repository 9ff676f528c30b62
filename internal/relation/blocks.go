package relation

// Column storage is block-chained: each column's dict-encoded codes live in
// a chain of sealed, fixed-size blocks plus one growing tail block, instead
// of a single flat slice. Sealing is structural immutability — once a block
// is full its backing array never moves or changes length again — which
// buys three things the flat layout could not give:
//
//   - Appends never reallocate previously written codes, so a column
//     view captured before an append stays valid without copying.
//   - Snapshots serialize and restore columns as bulk fixed-size block
//     copies with no re-interning and no growth-path waste.
//   - Memory accounting is exact: a column's footprint is a block count,
//     not an opaque append-doubling capacity.
//
// Cell updates (the monitor's consequent writes, repair's cell changes)
// still mutate codes in place under the owner's single-writer discipline;
// "sealed" freezes the block's identity and length, not its cell values.

const (
	// BlockShift is log2 of the block size: 64Ki codes (256 KiB) per block,
	// large enough that sequential scans are effectively flat and small
	// enough that the tail's unsealed waste is bounded.
	BlockShift = 16
	// BlockSize is the number of codes per sealed block.
	BlockSize = 1 << BlockShift
	blockMask = BlockSize - 1
)

// Col is one column's dict-encoded codes as a sealed-block chain. The
// zero value is an empty column. A Col is not safe for concurrent
// mutation; readers are safe between mutations (the same contract as the
// flat slice it replaced).
type Col struct {
	sealed [][]Value // each exactly BlockSize long, structurally frozen
	tail   []Value   // the growing unsealed block, len < BlockSize
	n      int
}

// Len returns the number of codes in the column.
func (c *Col) Len() int { return c.n }

// At returns the code at row i.
func (c *Col) At(i int) Value {
	if b := i >> BlockShift; b < len(c.sealed) {
		return c.sealed[b][i&blockMask]
	}
	return c.tail[i&blockMask]
}

// Set overwrites the code at row i in place.
func (c *Col) Set(i int, v Value) {
	if b := i >> BlockShift; b < len(c.sealed) {
		c.sealed[b][i&blockMask] = v
		return
	}
	c.tail[i&blockMask] = v
}

// Append adds one code at the end, sealing the tail block when it fills.
func (c *Col) Append(v Value) {
	if len(c.tail) == 0 && cap(c.tail) < BlockSize {
		// Blocks are allocated at full size up front: the chain never
		// pays append-doubling copies, and sealing is a pointer move.
		c.tail = make([]Value, 0, BlockSize)
	}
	c.tail = append(c.tail, v)
	c.n++
	if len(c.tail) == BlockSize {
		c.sealed = append(c.sealed, c.tail)
		c.tail = nil
	}
}

// NumBlocks returns the number of blocks, counting a non-empty tail.
func (c *Col) NumBlocks() int {
	if len(c.tail) > 0 {
		return len(c.sealed) + 1
	}
	return len(c.sealed)
}

// Block returns block b's codes for sequential scans. Blocks before
// NumBlocks()-1 are sealed (exactly BlockSize codes); the last may be the
// shorter tail. Callers must not grow the returned slice.
func (c *Col) Block(b int) []Value {
	if b < len(c.sealed) {
		return c.sealed[b]
	}
	return c.tail
}

// clone returns a deep copy of the column (cell writes mutate blocks in
// place, so clones must not share them).
func (c *Col) clone() *Col {
	out := &Col{n: c.n}
	if len(c.sealed) > 0 {
		out.sealed = make([][]Value, len(c.sealed))
		for i, blk := range c.sealed {
			b := make([]Value, BlockSize)
			copy(b, blk)
			out.sealed[i] = b
		}
	}
	if len(c.tail) > 0 {
		out.tail = make([]Value, len(c.tail), BlockSize)
		copy(out.tail, c.tail)
	}
	return out
}

// appendBlock bulk-appends codes that already form whole blocks — the
// snapshot restore path. blk must hold at most BlockSize codes; a full
// block is adopted (not copied) and sealed, a short one becomes the tail.
func (c *Col) appendBlock(blk []Value) {
	if len(c.tail) > 0 || len(blk) > BlockSize {
		panic("relation: appendBlock on a column with an open tail or oversized block")
	}
	if len(blk) == BlockSize {
		c.sealed = append(c.sealed, blk)
	} else {
		// Re-home short blocks at full capacity so later Appends extend in
		// place up to the seal instead of paying growth reallocations.
		c.tail = make([]Value, len(blk), BlockSize)
		copy(c.tail, blk)
	}
	c.n += len(blk)
}
