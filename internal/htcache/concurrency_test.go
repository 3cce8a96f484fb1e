package htcache

import (
	"fmt"
	"sync"
	"testing"

	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

func testHT(rows int) *hashtable.Table {
	ht := hashtable.New(hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "t", Column: "k"}, Kind: types.Int64},
		},
		KeyCols: 1,
	})
	for i := 0; i < rows; i++ {
		ht.Insert([]uint64{uint64(i)})
	}
	return ht
}

func testLineage(sig string) Lineage {
	return Lineage{
		Kind:    JoinBuild,
		Tables:  []string{"t"},
		JoinSig: sig,
		KeyCols: []storage.ColRef{{Table: "t", Column: "k"}},
		QidCol:  -1,
	}
}

// TestConcurrentRegisterPinRelease hammers the cache from many
// goroutines (run under -race): registering, probing candidates,
// pinning, releasing and garbage collecting must not race or corrupt
// the registry.
func TestConcurrentRegisterPinRelease(t *testing.T) {
	c := New(1 << 20) // small budget → constant GC pressure
	const workers = 8
	const iters = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sig := fmt.Sprintf("sig%d", w%4)
			for i := 0; i < iters; i++ {
				e := c.Register(testHT(64), testLineage(sig))
				for _, cand := range c.Candidates(testLineage(sig)) {
					c.Pin(cand, 0)
					if cand.HT().Len() == 0 {
						t.Error("candidate with empty table")
					}
					c.Release(cand)
				}
				c.RollupCandidates(testLineage(sig))
				c.Release(e)
				c.Stats()
				c.TotalBytes()
			}
		}(w)
	}
	wg.Wait()
	if err := checkRegistry(c); err != nil {
		t.Fatal(err)
	}
}

// checkRegistry verifies the registry's structural invariants: every hot
// entry is listed in its bucket and sits in exactly one index slot — the
// one its current filter selects — every bucket is reachable by kind,
// and every cold entry sits in its cold bucket.
func checkRegistry(c *Cache) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, buckets := 0, 0
	for key, b := range c.byStruct {
		if len(b.all) == 0 {
			return fmt.Errorf("empty bucket %q kept", key)
		}
		slots := map[*Entry]int{}
		for i, e := range b.residual {
			if e.slot.point || e.slot.at != i {
				return fmt.Errorf("bucket %q: residual[%d] = entry %d with slot %+v", key, i, e.ID, e.slot)
			}
			slots[e]++
		}
		for pt, list := range b.points {
			if len(list) == 0 {
				return fmt.Errorf("bucket %q: empty point list %+v kept", key, pt)
			}
			for i, e := range list {
				if !e.slot.point || e.slot.pt != pt || e.slot.at != i {
					return fmt.Errorf("bucket %q: points[%+v][%d] = entry %d with slot %+v", key, pt, i, e.ID, e.slot)
				}
				slots[e]++
			}
		}
		for i, e := range b.all {
			if c.entries[e.ID] != e || e.key != key || e.slot.all != i {
				return fmt.Errorf("bucket %q: all[%d] = entry %d (key %q, slot %+v) not registered there", key, i, e.ID, e.key, e.slot)
			}
			if slots[e] != 1 {
				return fmt.Errorf("bucket %q: entry %d sits in %d index slots", key, e.ID, slots[e])
			}
			f := e.cur.Load().Filter
			var want pointKey
			var point bool
			switch {
			case len(f) == 0 || f.Empty():
			case b.anchored:
				if con := b.anchorCon(f); con != nil {
					want, point = constraintPoint(con)
				}
			default:
				for i := range f {
					if _, ok := constraintPoint(&f[i].Con); ok {
						return fmt.Errorf("bucket %q is unanchored but entry %d pins %v", key, e.ID, f[i].Col)
					}
				}
			}
			if e.slot.point != point || e.slot.pt != want {
				return fmt.Errorf("bucket %q: entry %d with filter %v in slot %+v, want point=%v %+v", key, e.ID, f, e.slot, point, want)
			}
			n++
		}
		if len(slots) != len(b.all) {
			return fmt.Errorf("bucket %q indexes %d entries, lists %d", key, len(slots), len(b.all))
		}
		ks := kindSig{b.all[0].Lineage.Kind, b.all[0].Lineage.JoinSig}
		found := 0
		for _, kb := range c.byKind[ks] {
			if kb == b {
				found++
			}
		}
		if found != 1 {
			return fmt.Errorf("bucket %q listed %d times by kind", key, found)
		}
		buckets++
	}
	if n != len(c.entries) {
		return fmt.Errorf("buckets hold %d entries, registry %d", n, len(c.entries))
	}
	for _, list := range c.byKind {
		buckets -= len(list)
	}
	if buckets != 0 {
		return fmt.Errorf("byKind lists %d buckets more than byStruct", -buckets)
	}
	cold := 0
	for key, list := range c.coldBy {
		for i, ce := range list {
			if c.cold[ce.e.ID] != ce || ce.e.key != key || ce.at != i {
				return fmt.Errorf("coldBy[%q][%d] = entry %d not cold there", key, i, ce.e.ID)
			}
			if _, hot := c.entries[ce.e.ID]; hot {
				return fmt.Errorf("entry %d both hot and cold", ce.e.ID)
			}
			cold++
		}
	}
	if cold != len(c.cold) {
		return fmt.Errorf("coldBy holds %d entries, cold tier %d", cold, len(c.cold))
	}
	return nil
}

// TestGCNeverEvictsPinned pins an entry, overflows the budget, and
// asserts the pinned table survives every collection.
func TestGCNeverEvictsPinned(t *testing.T) {
	c := New(1) // any table overflows the 1-byte budget
	pinned := c.Register(testHT(128), testLineage("keep"))
	// Register keeps its own pin until Release; add a reader pin and
	// release the builder's so only the reader pin protects it.
	c.Pin(pinned, 0)
	c.Release(pinned)

	for i := 0; i < 50; i++ {
		e := c.Register(testHT(128), testLineage(fmt.Sprintf("bulk%d", i)))
		c.Release(e) // unpinned → immediately evictable
	}
	if c.Get(pinned.ID) == nil {
		t.Fatal("GC evicted a pinned entry")
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want only the pinned one", c.Len())
	}
	// Dropping the last pin makes it collectable.
	c.Release(pinned)
	c.GC()
	if c.Get(pinned.ID) != nil {
		t.Fatal("unpinned entry survived GC under a 1-byte budget")
	}
}

// TestUnreadyEntriesInvisible: a registered-but-unreleased (still
// building) table must not be offered for reuse.
func TestUnreadyEntriesInvisible(t *testing.T) {
	c := New(0)
	lin := testLineage("s")
	lin.GroupBy = lin.KeyCols
	rollup := testLineage("s") // groups by nothing: lin's GroupBy strictly contains it
	e := c.Register(testHT(8), lin)
	if got := len(c.Candidates(lin)); got != 0 {
		t.Fatalf("unready entry visible: %d candidates", got)
	}
	if got := len(c.RollupCandidates(rollup)); got != 0 {
		t.Fatalf("unready entry visible to roll-up: %d candidates", got)
	}
	c.Release(e)
	if got := len(c.Candidates(lin)); got != 1 {
		t.Fatalf("released entry not visible: %d candidates", got)
	}
	if got := len(c.RollupCandidates(rollup)); got != 1 {
		t.Fatalf("released entry not visible to roll-up: %d candidates", got)
	}
	if !e.Ready() {
		t.Fatal("released entry not marked ready")
	}
}

// TestAbandonRemovesOwnEntry: the error/discard path drops a creator's
// pinned, unpublished entry entirely.
func TestAbandonRemovesOwnEntry(t *testing.T) {
	c := New(0)
	e := c.Register(testHT(8), testLineage("s"))
	c.Abandon(e)
	if c.Get(e.ID) != nil {
		t.Fatal("abandoned entry still cached")
	}
	if got := len(c.Candidates(testLineage("s"))); got != 0 {
		t.Fatalf("abandoned entry visible: %d candidates", got)
	}
	// Abandon with extra pins outstanding only drops the caller's pin.
	e2 := c.Register(testHT(8), testLineage("s2"))
	c.Release(e2)
	c.Pin(e2, 0)
	c.Pin(e2, 0)
	c.Abandon(e2)
	if c.Get(e2.ID) == nil {
		t.Fatal("entry with outstanding pins was removed")
	}
}
