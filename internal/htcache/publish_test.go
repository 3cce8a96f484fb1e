package htcache

import (
	"testing"

	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

func widenLineage(lo int64) Lineage {
	return Lineage{
		Kind:    JoinBuild,
		Tables:  []string{"t"},
		JoinSig: "t|",
		Filter: expr.NewBox(expr.Pred{
			Col: storage.ColRef{Table: "t", Column: "k"},
			Con: expr.IntervalConstraint(types.Int64, expr.Interval{
				HasLo: true, Lo: types.NewInt(lo), LoIncl: true,
			}),
		}),
		KeyCols: []storage.ColRef{{Table: "t", Column: "k"}},
		QidCol:  -1,
	}
}

// TestPublishWidenedCASConflict: two widenings from the same snapshot —
// the loser's publication is refused and the winner's version stays.
func TestPublishWidenedCASConflict(t *testing.T) {
	c := New(0)
	e := c.Register(testHT(32), widenLineage(0))
	c.Release(e)

	prev := e.Current()
	w1 := prev.HT.Widen()
	w1.Insert([]uint64{1000})
	w2 := prev.HT.Widen()
	w2.Insert([]uint64{2000})

	if !c.PublishWidened(e, prev, w1, widenLineage(0).Filter) {
		t.Fatal("first publish refused")
	}
	if c.PublishWidened(e, prev, w2, widenLineage(0).Filter) {
		t.Fatal("second publish from a stale snapshot succeeded")
	}
	if cur := e.Current(); cur.HT != w1 || cur.Version != 2 {
		t.Fatalf("current = v%d", cur.Version)
	}
	if s := c.Stats(); s.WidenPublished != 1 || s.WidenLost != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// The loser simply becomes garbage; the winner's delta is visible
	// to new probes.
	it := e.Current().HT.Probe([]uint64{1000})
	if it.Next() == -1 {
		t.Fatal("winner's delta row not probeable")
	}
}

// TestPlanningWindowDemotion covers the one window in which a query
// uses an entry it has not pinned yet: between resolving a candidate's
// snapshot and pinning it at compile time. A demotion inside that
// window spills at once; the query keeps probing the snapshot it
// resolved, its widened successor loses the CAS instead of relisting
// the cold entry, and its late pin/release leaves the cold tier's
// accounting alone.
func TestPlanningWindowDemotion(t *testing.T) {
	c := New(0)
	c.SetColdBudget(1 << 30)
	e := c.Register(testHT(64), widenLineage(0))
	c.Release(e)

	// Plan: resolve the candidate's snapshot.
	cands := c.Candidates(widenLineage(0))
	if len(cands) != 1 || cands[0] != e {
		t.Fatalf("candidates = %v", cands)
	}
	snap := e.Current()

	// A concurrent query's GC demotes the (still unpinned) entry.
	c.SetBudget(1)
	c.SetBudget(0)
	if c.Get(e.ID) != nil || !e.Current().Spilled() {
		t.Fatal("victim not demoted and spilled")
	}
	before := c.Stats()
	coldBytes, entryBytes := before.Tiering.ColdBytes, e.Bytes
	if before.Tiering.Spills != 1 || coldBytes == 0 || entryBytes != coldBytes {
		t.Fatalf("cold tier after demotion: %+v, entry bytes %d", before.Tiering, entryBytes)
	}

	// Compile and execute: the late pin, probes of the resolved
	// snapshot, a widening derived from it.
	c.Pin(e, 0)
	if snap.HT == nil || snap.HT.Len() != 64 {
		t.Fatal("resolved snapshot lost its table")
	}
	for k := uint64(0); k < 64; k++ {
		if it := snap.HT.Probe([]uint64{k}); it.Next() == -1 {
			t.Fatalf("key %d no longer answers on the resolved snapshot", k)
		}
	}
	if s := c.Stats(); s.Pinned != 1 {
		t.Fatalf("Pinned = %d with one cold entry pinned", s.Pinned)
	}
	w := snap.HT.Widen()
	w.Insert([]uint64{1000})

	// Finish: publish, then release.
	if c.PublishWidened(e, snap, w, widenLineage(0).Filter) {
		t.Fatal("widened successor of a demoted snapshot was published")
	}
	c.Release(e)
	after := c.Stats()
	if after.Tiering.ColdBytes != coldBytes || e.Bytes != entryBytes {
		t.Fatalf("release rewrote cold accounting: ColdBytes %d -> %d, entry Bytes %d -> %d",
			coldBytes, after.Tiering.ColdBytes, entryBytes, e.Bytes)
	}
	if after.WidenLost != 1 || after.WidenPublished != 0 || after.Pinned != 0 || after.Entries != 0 {
		t.Fatalf("stats after release = %+v", after)
	}

	revived := c.Revive(e, nil)
	if revived == nil || revived.HT == nil || revived.HT.Len() != 64 {
		t.Fatal("revival after the planning window failed")
	}
	if c.Get(e.ID) == nil || c.Stats().Tiering.ColdEntries != 0 {
		t.Fatal("revived entry not relisted hot")
	}
}

// TestPublishFoldsSupersededProbes: the probe counters of a superseded
// snapshot fold into the cache totals at publication, so the
// cumulative counters stay monotonic across versions.
func TestPublishFoldsSupersededProbes(t *testing.T) {
	c := New(0)
	e := c.Register(testHT(32), widenLineage(0))
	c.Release(e)
	prev := e.Current()
	keys := make([]uint64, 32)
	for i := range keys {
		keys[i] = uint64(i)
	}
	enc := [][]uint64{keys}
	hashes := make([]uint64, len(keys))
	hashtable.HashColumns(hashes, enc)
	prev.HT.ProbeHashedColumn(make([]int32, len(keys)), hashes, enc, nil, nil, nil)
	before := c.Stats().Probes
	if before == 0 {
		t.Fatal("probes of the published snapshot not counted")
	}
	w := prev.HT.Widen()
	w.Insert([]uint64{1000})
	if !c.PublishWidened(e, prev, w, widenLineage(0).Filter) {
		t.Fatal("publish failed with no competitor")
	}
	if after := c.Stats().Probes; after != before {
		t.Fatalf("Probes %d -> %d across publication", before, after)
	}
}
