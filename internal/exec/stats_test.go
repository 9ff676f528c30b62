package exec

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStatsSpanAccumulates(t *testing.T) {
	st := NewStats()
	for level := 0; level < 3; level++ {
		sp := st.Span("discover.verify")
		sp.Items(10)
		sp.Workers(level + 1)
		sp.Cache(5, 1)
		sp.End()
	}
	stages, _ := st.Snapshot()
	if len(stages) != 1 {
		t.Fatalf("want 1 stage, got %d", len(stages))
	}
	got := stages[0]
	if got.Name != "discover.verify" || got.Items != 30 || got.Workers != 3 ||
		got.CacheHits != 15 || got.CacheMisses != 3 || got.Spans != 3 {
		t.Fatalf("bad accumulation: %+v", got)
	}
	if got.Wall < 0 {
		t.Fatalf("negative wall %v", got.Wall)
	}
}

func TestStatsOrderIsFirstRecorded(t *testing.T) {
	st := NewStats()
	for _, name := range []string{"b", "a", "c", "a"} {
		sp := st.Span(name)
		sp.End()
	}
	stages, _ := st.Snapshot()
	var names []string
	for _, s := range stages {
		names = append(names, s.Name)
	}
	if strings.Join(names, ",") != "b,a,c" {
		t.Fatalf("order %v", names)
	}
}

func TestStatsDoubleEndIsNoop(t *testing.T) {
	st := NewStats()
	sp := st.Span("x")
	sp.Items(1)
	sp.End()
	sp.End()
	stages, _ := st.Snapshot()
	if stages[0].Spans != 1 || stages[0].Items != 1 {
		t.Fatalf("double End counted twice: %+v", stages[0])
	}
}

func TestStatsNilSafety(t *testing.T) {
	var st *Stats
	sp := st.Span("x") // nil span
	sp.Items(3)
	sp.Workers(2)
	sp.Cache(1, 1)
	sp.End()
	st.Note("ignored %d", 1)
	st.Merge(NewStats())
	if stages, notes := st.Snapshot(); stages != nil || notes != nil {
		t.Fatal("nil Stats snapshot not empty")
	}
	// encoding/json short-circuits nil pointers to null before consulting
	// MarshalJSON; embedders hold a concrete registry, so null only appears
	// for a registry that was never created.
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `null` {
		t.Fatalf("nil Stats JSON = %s", b)
	}
	if !strings.Contains(st.Table(), "(no stages recorded)") {
		t.Fatalf("nil Stats table = %q", st.Table())
	}
}

func TestStatsJSONShape(t *testing.T) {
	st := NewStats()
	sp := st.Span("clean.beam")
	sp.Items(7)
	sp.Workers(4)
	sp.End()
	st.Note("beam truncated at level %d", 3)
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Stages []struct {
			Name    string `json:"name"`
			WallNS  int64  `json:"wall_ns"`
			Items   int64  `json:"items"`
			Workers int    `json:"workers"`
			Spans   int64  `json:"spans"`
		} `json:"stages"`
		Notes []string `json:"notes"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
	if len(decoded.Stages) != 1 || decoded.Stages[0].Name != "clean.beam" ||
		decoded.Stages[0].Items != 7 || decoded.Stages[0].Workers != 4 || decoded.Stages[0].Spans != 1 {
		t.Fatalf("bad stages: %s", raw)
	}
	if len(decoded.Notes) != 1 || !strings.Contains(decoded.Notes[0], "level 3") {
		t.Fatalf("bad notes: %s", raw)
	}
}

func TestStatsTableRendersStagesAndNotes(t *testing.T) {
	st := NewStats()
	sp := st.Span("evidence.clusters")
	sp.Items(1234)
	sp.Workers(8)
	sp.End()
	st.Note("sequential fallback")
	table := st.Table()
	for _, want := range []string{"stage", "wall", "items", "workers", "evidence.clusters", "1234", "note: sequential fallback"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestStatsNoteDeduplicates(t *testing.T) {
	st := NewStats()
	st.Note("same")
	st.Note("same")
	st.Note("different")
	if _, notes := st.Snapshot(); len(notes) != 2 {
		t.Fatalf("notes %v", notes)
	}
}

func TestStatsMerge(t *testing.T) {
	a, b := NewStats(), NewStats()
	sp := a.Span("s")
	sp.Items(1)
	sp.End()
	sp = b.Span("s")
	sp.Items(2)
	sp.Workers(5)
	sp.End()
	b.Note("from b")
	a.Merge(b)
	stages, notes := a.Snapshot()
	if len(stages) != 1 || stages[0].Items != 3 || stages[0].Workers != 5 || stages[0].Spans != 2 {
		t.Fatalf("merge result %+v", stages)
	}
	if len(notes) != 1 || notes[0] != "from b" {
		t.Fatalf("merge notes %v", notes)
	}
}

func TestStatsConcurrentSpans(t *testing.T) {
	st := NewStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := st.Span("hot")
				sp.Items(1)
				sp.End()
				st.Note("note %d", i%4)
			}
		}()
	}
	wg.Wait()
	stages, notes := st.Snapshot()
	if stages[0].Items != 800 || stages[0].Spans != 800 {
		t.Fatalf("concurrent accumulation lost updates: %+v", stages[0])
	}
	if len(notes) != 4 {
		t.Fatalf("notes %v", notes)
	}
	if names := st.SortedNames(); len(names) != 1 || names[0] != "hot" {
		t.Fatalf("names %v", names)
	}
	_ = time.Microsecond
}

// TestStatsSkippedCounter: the Skipped span counter accumulates (like
// Items), serializes as "skipped", and survives Merge — it is the
// incremental engines' skip-rate observability.
func TestStatsSkippedCounter(t *testing.T) {
	s := NewStats()
	sp := s.Span("maintain.verify")
	sp.Items(3)
	sp.Skipped(5)
	sp.Skipped(2)
	sp.End()
	stages, _ := s.Snapshot()
	if len(stages) != 1 || stages[0].Skipped != 7 || stages[0].Items != 3 {
		t.Fatalf("stages = %+v, want one stage with items=3 skipped=7", stages)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"skipped":7`) {
		t.Fatalf("JSON missing skipped counter: %s", raw)
	}
	var nilSpan *Span
	nilSpan.Skipped(3) // nil-safe like every Span method

	other := NewStats()
	osp := other.Span("maintain.verify")
	osp.Skipped(4)
	osp.End()
	s.Merge(other)
	stages, _ = s.Snapshot()
	if stages[0].Skipped != 11 {
		t.Fatalf("merged skipped = %d, want 11", stages[0].Skipped)
	}
}
