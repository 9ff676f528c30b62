package relation

import (
	"math/rand"
	"sync"
	"testing"
)

// evictAll drops every cached entry level by level; a cache with exact
// byte accounting must land at zero bytes and zero entries afterwards —
// any drift from a Put-replace or concurrent eviction shows up as residue.
func evictAll(t *testing.T, pc *PartitionCache, cols int) {
	t.Helper()
	for k := 0; k <= cols; k++ {
		pc.Evict(k)
	}
	st := pc.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("byte accounting drifted: %d entries / %d bytes after full eviction", st.Entries, st.Bytes)
	}
}

func TestCacheBytesExactPutReplace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel := randRelation(t, rng, 400, 4, 5)
	pc := NewPartitionCache(rel)
	base := pc.Stats()

	attrs := Single(0).With(1)
	p1 := PartitionOf(rel, attrs).Strip()
	pc.Put(attrs, p1)
	st := pc.Stats()
	if got, want := st.Bytes-base.Bytes, partitionBytes(p1); got != want {
		t.Fatalf("Put added %d bytes, partition is %d", got, want)
	}
	if st.Entries != base.Entries+1 {
		t.Fatalf("Put added %d entries, want 1", st.Entries-base.Entries)
	}

	// Replacing the same key must subtract the old payload first.
	p2 := PartitionOf(rel, attrs.With(2)).Strip()
	pc.Put(attrs, p2)
	st = pc.Stats()
	if got, want := st.Bytes-base.Bytes, partitionBytes(p2); got != want {
		t.Fatalf("Put-replace left %d extra bytes, want exactly %d", got, want)
	}
	if st.Entries != base.Entries+1 {
		t.Fatalf("Put-replace changed entry count: %d vs %d", st.Entries, base.Entries+1)
	}

	// Evicting the level must return the counter to the baseline and count
	// the eviction.
	pc.Evict(2)
	st = pc.Stats()
	if st.Bytes != base.Bytes || st.Entries != base.Entries {
		t.Fatalf("Evict left %d bytes / %d entries, want baseline %d / %d",
			st.Bytes, st.Entries, base.Bytes, base.Entries)
	}
	if st.Evictions != base.Evictions+1 {
		t.Fatalf("Evictions counter %d, want %d", st.Evictions, base.Evictions+1)
	}
	evictAll(t, pc, rel.NumCols())
}

// TestCacheBytesExactConcurrent hammers Get/Put/Evict from many goroutines
// and then checks the byte counter against the ground truth (full eviction
// must reach exactly zero). Run under -race this also covers the locking.
func TestCacheBytesExactConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := randRelation(t, rng, 300, 5, 4)
	pc := NewPartitionCache(rel)
	cols := rel.NumCols()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var buf ProductBuffer
			for i := 0; i < 300; i++ {
				attrs := Single(rng.Intn(cols))
				for k := rng.Intn(3); k > 0; k-- {
					attrs = attrs.With(rng.Intn(cols))
				}
				switch rng.Intn(10) {
				case 0:
					pc.Evict(1 + rng.Intn(cols))
				case 1:
					pc.Put(attrs, PartitionOf(rel, attrs))
				default:
					pc.GetWith(attrs, &buf)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	evictAll(t, pc, cols)
}

// maxEntryBytes returns the largest single partition payload the trace's
// sets can produce — the one-in-flight overshoot the budget contract
// allows.
func maxEntryBytes(rel *Relation, sets []AttrSet) int64 {
	var max int64
	for _, attrs := range sets {
		if b := partitionBytes(PartitionOf(rel, attrs).Strip()); b > max {
			max = b
		}
	}
	return max
}

func TestCacheBudgetEnforced(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := randRelation(t, rng, 500, 5, 3)
	cols := rel.NumCols()
	var sets []AttrSet
	for i := 0; i < 40; i++ {
		attrs := Single(rng.Intn(cols))
		for k := rng.Intn(3); k > 0; k-- {
			attrs = attrs.With(rng.Intn(cols))
		}
		sets = append(sets, attrs)
	}
	maxEntry := maxEntryBytes(rel, sets)

	pc := NewPartitionCache(rel)
	budget := 3 * maxEntry / 2
	pc.SetBudget(budget)
	if pc.Budget() != budget {
		t.Fatalf("config not retained: budget %d", pc.Budget())
	}
	var buf ProductBuffer
	for i, attrs := range sets {
		pc.GetWith(attrs, &buf)
		if b := pc.Stats().Bytes; b > budget+maxEntry {
			t.Fatalf("after Get %d payload %d exceeds budget %d + max entry %d",
				i, b, budget, maxEntry)
		}
	}
	if ev := pc.Stats().Evictions; ev == 0 {
		t.Fatalf("budget sweep never evicted (budget %d)", budget)
	}
	evictAll(t, pc, cols)
}

// TestCacheBudgetConcurrent runs budgeted traffic from many goroutines:
// after the traffic quiesces one enforcement pass must land the payload at
// or under budget, and the accounting must still be exact.
func TestCacheBudgetConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rel := randRelation(t, rng, 300, 5, 3)
	cols := rel.NumCols()
	pc := NewPartitionCache(rel)
	budget := pc.Stats().Bytes + 4*partitionBytes(pc.Get(Single(0)))
	pc.SetBudget(budget)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var buf ProductBuffer
			for i := 0; i < 200; i++ {
				attrs := Single(rng.Intn(cols)).With(rng.Intn(cols))
				if rng.Intn(2) == 0 {
					attrs = attrs.With(rng.Intn(cols))
				}
				pc.GetWith(attrs, &buf)
			}
		}(int64(100 + g))
	}
	wg.Wait()
	pc.SetBudget(budget) // one quiesced enforcement pass
	if b := pc.Stats().Bytes; b > budget {
		t.Fatalf("payload %d over budget %d after quiesced enforcement", b, budget)
	}
	evictAll(t, pc, cols)
}

func TestCacheStatsSince(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel := randRelation(t, rng, 200, 4, 4)
	pc := NewPartitionCache(rel)

	pc.Get(Single(0)) // hit (pre-warmed)
	prev := pc.Stats()

	pc.Get(Single(0))         // hit
	pc.Get(Single(0).With(1)) // miss + insert (+2 hits on the cached singles it recurses through)
	pc.Get(Single(0).With(1)) // hit
	pc.Evict(2)               // drop the level-2 entry

	d := pc.Stats().Since(prev)
	if d.Hits != 4 || d.Misses != 1 {
		t.Fatalf("Since hits/misses = %d/%d, want 4/1", d.Hits, d.Misses)
	}
	if d.Evictions != 1 {
		t.Fatalf("Since evictions = %d, want 1", d.Evictions)
	}
	if d.Entries != 0 || d.Bytes != 0 {
		t.Fatalf("Since entries/bytes = %d/%d, want 0/0 (insert and evict cancel)", d.Entries, d.Bytes)
	}
	if d.Budget != pc.Budget() || d.PeakBytes != pc.Stats().PeakBytes {
		t.Fatalf("Since must carry current Budget and PeakBytes")
	}
}

// TestEvictCostModelKeepsHotEntries checks the policy's ranking: with two
// same-level entries of equal size, repeated hits on one must make the
// cold one evict first when the budget trips.
func TestEvictCostModelKeepsHotEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rel := randRelation(t, rng, 400, 6, 3)
	pc := NewPartitionCache(rel)
	hot := Single(0).With(1)
	cold := Single(2).With(3)
	pc.Get(cold)
	for i := 0; i < 50; i++ {
		pc.Get(hot) // heat
	}
	// Budget just below the current payload forces exactly one shed pass.
	pc.SetBudget(pc.Stats().Bytes - 1)

	misses := pc.Stats().Misses
	pc.Get(hot)
	if pc.Stats().Misses != misses {
		t.Fatalf("cost model evicted the hot entry over the cold one")
	}
}

// TestCacheInvalidateTouchedCount pins InvalidateTouched's return value:
// exactly the number of resident entries intersecting the touched set.
func TestCacheInvalidateTouchedCount(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rel := randRelation(t, rng, 100, 4, 3)
	pc := NewPartitionCache(rel) // pre-warms 4 single columns
	pc.Get(Single(0).With(1))
	pc.Get(Single(2).With(3))
	pc.Get(Single(0).With(2).With(3))
	if n := pc.InvalidateTouched(EmptySet); n != 0 {
		t.Fatalf("empty touched dropped %d", n)
	}
	// Touching column 3 intersects {3}, {2,3}, {0,2,3}.
	if n := pc.InvalidateTouched(Single(3)); n != 3 {
		t.Fatalf("touched {3} dropped %d, want 3", n)
	}
	// Already dropped: a second invalidation finds nothing.
	if n := pc.InvalidateTouched(Single(3)); n != 0 {
		t.Fatalf("repeat invalidation dropped %d, want 0", n)
	}
	// The untouched entries survived.
	st := pc.Stats()
	if st.Entries != 4 { // {0}, {1}, {2}, {0,1}
		t.Fatalf("entries after invalidation = %d, want 4", st.Entries)
	}
}
