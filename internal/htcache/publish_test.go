package htcache

import (
	"fmt"
	"sync"
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
	w1 := prev.HT.Widen(1)
	w1.Insert([]uint64{1000})
	w2 := prev.HT.Widen(1)
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
	cands := c.Candidates(widenLineage(0), nil)
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
	w := snap.HT.Widen(1)
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
	prev.HT.ProbeHashedColumn(make([]int32, len(keys)), hashes, enc, nil, nil)
	before := c.Stats().Probes
	if before == 0 {
		t.Fatal("probes of the published snapshot not counted")
	}
	w := prev.HT.Widen(1)
	w.Insert([]uint64{1000})
	if !c.PublishWidened(e, prev, w, widenLineage(0).Filter) {
		t.Fatal("publish failed with no competitor")
	}
	if after := c.Stats().Probes; after != before {
		t.Fatalf("Probes %d -> %d across publication", before, after)
	}
}

// TestWidenInvisibleToConcurrentReaders is the -race property test of
// the widening lifecycle: writers repeatedly widen a cached aggregation
// table into a private copy, fold every group once, and publish by
// CAS, while concurrent readers probe whichever snapshot they resolved
// through the batched probe path. Widening must be invisible: every
// snapshot of version V holds every key exactly once with value V-1,
// however many copies were folded and published underneath the
// reader's feet.
func TestWidenInvisibleToConcurrentReaders(t *testing.T) {
	const keys = 96
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "t", Column: "k"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "t", Column: "v"}, Kind: types.Int64},
		},
		KeyCols: 1,
	}
	root := hashtable.New(layout)
	for k := uint64(0); k < keys; k++ {
		e, _ := root.Upsert([]uint64{k})
		root.SetCell(e, 1, 0)
	}
	c := New(0)
	lin := Lineage{
		Kind:    Aggregate,
		Tables:  []string{"t"},
		JoinSig: "t|",
		KeyCols: []storage.ColRef{{Table: "t", Column: "k"}},
		GroupBy: []storage.ColRef{{Table: "t", Column: "k"}},
	}
	entry := c.Register(root, lin)
	c.Release(entry)

	probeKeys := make([]uint64, keys)
	for i := range probeKeys {
		probeKeys[i] = uint64(i)
	}
	// checkSnapshot asserts the version invariant through the batched
	// probe path (each goroutine owns its scratch buffers).
	checkSnapshot := func(snap *Snapshot) error {
		enc := [][]uint64{probeKeys}
		hashes := make([]uint64, keys)
		hashtable.HashColumns(hashes, enc)
		rows, ents := snap.HT.ProbeHashedColumn(make([]int32, keys), hashes, enc, nil, nil)
		if len(rows) != keys {
			return fmt.Errorf("version %d: %d matches for %d keys", snap.Version, len(rows), keys)
		}
		seen := make([]bool, keys)
		for i, e := range ents {
			k := probeKeys[rows[i]]
			if seen[k] {
				return fmt.Errorf("version %d: key %d matched twice", snap.Version, k)
			}
			seen[k] = true
			if got := snap.HT.Cell(e, 1); got != uint64(snap.Version-1) {
				return fmt.Errorf("version %d: key %d value %d, want %d", snap.Version, k, got, snap.Version-1)
			}
		}
		return nil
	}

	const writers = 3
	const readers = 4
	const rounds = 12
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				snap := entry.Current()
				succ := snap.HT.Widen(0)
				for k := uint64(0); k < keys; k++ {
					e, found := succ.Upsert([]uint64{k})
					if !found {
						errCh <- fmt.Errorf("writer: key %d vanished at version %d", k, snap.Version)
						return
					}
					succ.SetCell(e, 1, succ.Cell(e, 1)+1)
				}
				// A lost CAS is benign: a competitor's copy (carrying the
				// same +1 over the same snapshot) was published first.
				c.PublishWidened(entry, snap, succ, lin.Filter)
			}
		}()
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds*4; r++ {
				if err := checkSnapshot(entry.Current()); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	final := entry.Current()
	if final.Version < 2 {
		t.Fatal("no widened snapshot was ever published")
	}
	if err := checkSnapshot(final); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	if stats.WidenPublished == 0 {
		t.Error("no publications recorded")
	}
	if stats.Probes == 0 || stats.ProbeChainNodes == 0 {
		t.Errorf("probe counters never moved: %+v", stats)
	}
}
