package htcache

import (
	"fmt"
	"sync"
	"testing"

	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// TestBucketRehashInvisibleToConcurrentReaders is the -race property
// test of the incremental-rehash lifecycle: writers repeatedly widen a
// cached aggregation table (with aggressive bucket maintenance on both
// the widen- and publish-time passes), fold every group once, and
// publish by CAS, while concurrent readers probe whichever snapshot
// they resolved through the batched probe path. Rehash must be invisible:
// every snapshot of version V holds every key exactly once with value
// V-1, no matter how many buckets were rewritten, re-widened, or
// rewritten again underneath the reader's feet.
func TestBucketRehashInvisibleToConcurrentReaders(t *testing.T) {
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
	c.SetRehash(true, 1<<20)
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
		rows, ents := snap.HT.ProbeHashedColumn(make([]int32, keys), hashes, enc, nil, nil, nil)
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
				succ := snap.HT.WidenWith(hashtable.WidenOptions{Rehash: true, Budget: 1 << 20})
				for k := uint64(0); k < keys; k++ {
					e, found := succ.Upsert([]uint64{k})
					if !found {
						errCh <- fmt.Errorf("writer: key %d vanished at version %d", k, snap.Version)
						return
					}
					succ.SetCell(e, 1, succ.Cell(e, 1)+1)
				}
				// A lost CAS is benign: a competitor's successor (carrying
				// the same +1 over the same snapshot) was published first.
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
	stats := c.Stats()
	if stats.WidenPublished == 0 {
		t.Error("no publications recorded")
	}
	if stats.BucketRehashes == 0 || stats.TombstonesReclaimed == 0 {
		t.Errorf("maintenance counters never moved: %+v", stats)
	}
	// This workload rewrites every group every generation, so the
	// dead-slot bloat valve may legitimately compact along the way; the
	// invariant checks above must hold regardless.
	if stats.Probes == 0 || stats.ProbeChainNodes == 0 {
		t.Errorf("probe counters never moved: %+v", stats)
	}
}
