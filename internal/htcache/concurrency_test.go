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
				for _, cand := range c.Candidates(testLineage(sig), nil) {
					c.Pin(cand, 0)
					if cand.HT().Len() == 0 {
						t.Error("candidate with empty table")
					}
					c.Release(cand)
				}
				c.RollupCandidates(testLineage(sig), nil)
				c.Release(e)
				c.Stats()
				c.TotalBytes()
			}
		}(w)
	}
	wg.Wait()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
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
	if got := len(c.Candidates(lin, nil)); got != 0 {
		t.Fatalf("unready entry visible: %d candidates", got)
	}
	if got := len(c.RollupCandidates(rollup, nil)); got != 0 {
		t.Fatalf("unready entry visible to roll-up: %d candidates", got)
	}
	c.Release(e)
	if got := len(c.Candidates(lin, nil)); got != 1 {
		t.Fatalf("released entry not visible: %d candidates", got)
	}
	if got := len(c.RollupCandidates(rollup, nil)); got != 1 {
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
	if got := len(c.Candidates(testLineage("s"), nil)); got != 0 {
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
