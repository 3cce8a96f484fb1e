package htcache

import (
	"testing"

	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

func makeHT(rows int) *hashtable.Table {
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "orders", Column: "o_custkey"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "orders", Column: "o_orderdate"}, Kind: types.Date},
		},
		KeyCols: 1,
	}
	ht := hashtable.New(layout)
	for i := 0; i < rows; i++ {
		ht.Insert([]uint64{uint64(i), uint64(i * 10)})
	}
	return ht
}

func lin(dateLo int64) Lineage {
	return Lineage{
		Kind:    JoinBuild,
		Tables:  []string{"orders"},
		JoinSig: "orders|",
		Filter: expr.NewBox(expr.Pred{
			Col: storage.ColRef{Table: "orders", Column: "o_orderdate"},
			Con: expr.IntervalConstraint(types.Date, expr.Interval{
				HasLo: true, Lo: types.NewDate(dateLo), LoIncl: true,
			}),
		}),
		KeyCols: []storage.ColRef{{Table: "orders", Column: "o_custkey"}},
		QidCol:  -1,
	}
}

func TestRegisterPinReleaseHit(t *testing.T) {
	c := New(0)
	e := c.Register(makeHT(10), lin(100))
	if e.Pins != 1 {
		t.Error("registration should pin")
	}
	c.Release(e)
	if e.Pins != 0 {
		t.Error("release should unpin")
	}
	if c.Len() != 1 || c.Get(e.ID) != e || c.Get(999) != nil {
		t.Error("lookup broken")
	}

	cands := c.Candidates(lin(200))
	if len(cands) != 1 || cands[0] != e {
		t.Fatalf("candidates = %v", cands)
	}
	c.Pin(e, 0)
	if e.Hits != 1 {
		t.Error("pin should count a hit")
	}
	c.Release(e)

	s := c.Stats()
	if s.Entries != 1 || s.Hits != 1 || s.Registered != 1 || s.HitRatio != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCandidatesStructuralFiltering(t *testing.T) {
	c := New(0)
	e1 := c.Register(makeHT(5), lin(100))
	c.Release(e1)

	// Different key columns → different structure.
	other := lin(100)
	other.KeyCols = []storage.ColRef{{Table: "orders", Column: "o_orderkey"}}
	e2 := c.Register(makeHT(5), other)
	c.Release(e2)

	// Different kind → different structure.
	agg := lin(100)
	agg.Kind = Aggregate
	agg.GroupBy = agg.KeyCols
	e3 := c.Register(makeHT(5), agg)
	c.Release(e3)

	if got := c.Candidates(lin(0)); len(got) != 1 || got[0] != e1 {
		t.Errorf("join candidates = %v", got)
	}
	if got := c.Candidates(agg); len(got) != 1 || got[0] != e3 {
		t.Errorf("agg candidates = %v", got)
	}
	// Roll-up lookup: e3 groups by a strict superset of nothing.
	rollup := Lineage{Kind: Aggregate, JoinSig: "orders|"}
	if got := c.RollupCandidates(rollup); len(got) != 1 || got[0] != e3 {
		t.Errorf("roll-up candidates = %v", got)
	}
	rollup.Kind = SharedGrouping
	if got := c.RollupCandidates(rollup); len(got) != 0 {
		t.Errorf("unexpected shared candidates: %v", got)
	}
}

func TestCandidatesMRUOrder(t *testing.T) {
	c := New(0)
	e1 := c.Register(makeHT(5), lin(100))
	c.Release(e1)
	e2 := c.Register(makeHT(5), lin(200))
	c.Release(e2)
	// Touch e1 so it becomes most recent.
	c.Touch(e1)
	got := c.Candidates(lin(0))
	if len(got) != 2 || got[0] != e1 {
		t.Errorf("MRU order broken: %v", got)
	}
}

func TestGCEvictsLRU(t *testing.T) {
	c := New(0)
	e1 := c.Register(makeHT(1000), lin(100))
	c.Release(e1)
	e2 := c.Register(makeHT(1000), lin(200))
	c.Release(e2)
	e3 := c.Register(makeHT(1000), lin(300))
	c.Release(e3)
	total := c.TotalBytes()

	// Touch e1 (oldest by registration) so e2 becomes LRU.
	c.Touch(e1)

	c.Budget = total - 1 // force one eviction
	if n := c.GC(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if c.Get(e2.ID) != nil {
		t.Error("LRU entry e2 survived")
	}
	if c.Get(e1.ID) == nil || c.Get(e3.ID) == nil {
		t.Error("wrong entry evicted")
	}
	if s := c.Stats(); s.Evictions != 1 || s.EvictedBytes <= 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestGCSkipsPinned(t *testing.T) {
	c := New(0)
	e1 := c.Register(makeHT(1000), lin(100))
	// e1 stays pinned.
	e2 := c.Register(makeHT(1000), lin(200))
	c.Release(e2)

	c.Budget = 10 // everything must go
	c.GC()
	if c.Get(e1.ID) == nil {
		t.Error("pinned entry evicted")
	}
	if c.Get(e2.ID) != nil {
		t.Error("unpinned entry survived over-budget GC")
	}
	// Releasing the pin lets the next GC evict it.
	c.Release(e1)
	if c.Get(e1.ID) != nil {
		t.Error("release did not trigger GC eviction")
	}
}

func TestRegisterTriggersGC(t *testing.T) {
	c := New(1) // 1-byte budget: every unpinned table is evicted on admit
	e1 := c.Register(makeHT(100), lin(100))
	c.Release(e1)
	if c.Get(e1.ID) != nil {
		t.Error("over-budget entry survived release-GC")
	}
	// A pinned registration survives even over budget.
	e2 := c.Register(makeHT(100), lin(200))
	if c.Get(e2.ID) == nil {
		t.Error("pinned registration evicted")
	}
}

func TestEvictExplicit(t *testing.T) {
	c := New(0)
	e := c.Register(makeHT(10), lin(100))
	if err := c.Evict(e); err == nil {
		t.Error("evicting pinned entry should fail")
	}
	c.Release(e)
	if err := c.Evict(e); err != nil {
		t.Error(err)
	}
	if err := c.Evict(e); err == nil {
		t.Error("double evict should fail")
	}
	if c.Len() != 0 {
		t.Error("entry not removed")
	}
}

func TestClear(t *testing.T) {
	c := New(0)
	e1 := c.Register(makeHT(10), lin(100))
	c.Release(e1)
	e2 := c.Register(makeHT(10), lin(200)) // stays pinned
	c.Clear()
	if c.Get(e1.ID) != nil {
		t.Error("unpinned survived Clear")
	}
	if c.Get(e2.ID) == nil {
		t.Error("pinned cleared")
	}
}

func TestReleaseRefreshesBytes(t *testing.T) {
	c := New(0)
	ht := makeHT(10)
	e := c.Register(ht, lin(100))
	before := e.Bytes
	// Partial reuse grows the table.
	for i := 100; i < 5000; i++ {
		ht.Insert([]uint64{uint64(i), uint64(i)})
	}
	c.Release(e)
	if e.Bytes <= before {
		t.Errorf("bytes not refreshed: %d <= %d", e.Bytes, before)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		JoinBuild: "join-build", Aggregate: "aggregate",
		SharedJoinBuild: "shared-join-build", SharedGrouping: "shared-grouping",
		Kind(9): "kind(?)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q", k, k.String())
		}
	}
}

func TestStructKeyDiscriminates(t *testing.T) {
	a := lin(100)
	b := lin(999)
	if a.StructKey() != b.StructKey() {
		t.Error("filter bounds must not affect structural key")
	}
	c := lin(100)
	c.JoinSig = "other|"
	if a.StructKey() == c.StructKey() {
		t.Error("join signature must affect structural key")
	}
	d := lin(100)
	d.GroupBy = []storage.ColRef{{Table: "x", Column: "y"}}
	if a.StructKey() == d.StructKey() {
		t.Error("group-by must affect structural key")
	}
}
