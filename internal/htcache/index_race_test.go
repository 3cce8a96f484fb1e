package htcache

import (
	"sync"
	"testing"

	"hashstash/internal/btree"
	"hashstash/internal/expr"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

func makeCol(rows int) *storage.Column {
	col := storage.NewColumn("ev_temp", types.Int64)
	for i := 0; i < rows; i++ {
		col.Append(types.NewInt(int64(i % 97)))
	}
	return col
}

// TestIndexLifecycle exercises the register → release → candidates →
// invalidate cycle for secondary-index entries.
func TestIndexLifecycle(t *testing.T) {
	c := New(0)
	tree, err := btree.Build(makeCol(500))
	if err != nil {
		t.Fatal(err)
	}
	ref := storage.ColRef{Table: "events", Column: "ev_temp"}
	e := c.RegisterIndex(tree, ref)
	if e.Pins != 1 {
		t.Error("registration should pin")
	}
	c.Release(e)

	cands := c.Candidates(IndexLineage(ref))
	if len(cands) != 1 || cands[0] != e {
		t.Fatalf("candidates = %v", cands)
	}
	if snap := e.Current(); snap == nil || snap.Idx != tree || snap.HT != nil {
		t.Fatal("snapshot should hold the tree and no hash table")
	}
	st := c.Stats()
	if st.Index.Builds != 1 {
		t.Errorf("builds = %d", st.Index.Builds)
	}
	if c.IndexBytes() <= 0 {
		t.Error("index bytes not accounted")
	}

	if n := c.InvalidateTable("other"); n != 0 {
		t.Errorf("invalidated %d entries of unrelated table", n)
	}
	if n := c.InvalidateTable("events"); n != 1 {
		t.Errorf("invalidated %d entries, want 1", n)
	}
	if c.Stats().Index.Invalidations != 1 {
		t.Error("invalidation not counted")
	}
	if len(c.Candidates(IndexLineage(ref))) != 0 {
		t.Error("invalidated index still a candidate")
	}
}

// TestIndexRace races index registration and publication against
// readers resolving snapshots and table invalidations evicting them.
// Run with -race; the property asserted is that a reader-resolved
// snapshot stays usable (non-nil tree, consistent Range results) no
// matter how eviction interleaves.
func TestIndexRace(t *testing.T) {
	c := New(0)
	col := makeCol(2000)
	ref := storage.ColRef{Table: "events", Column: "ev_temp"}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Builder: register fresh indexes and release them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tree, err := btree.Build(col)
			if err != nil {
				t.Error(err)
				return
			}
			e := c.RegisterIndex(tree, ref)
			c.Release(e)
		}
		close(stop)
	}()

	// Invalidator: keep evicting everything over the table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.InvalidateTable("events")
		}
	}()

	// Readers: resolve a candidate's snapshot and probe it.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range c.Candidates(IndexLineage(ref)) {
					snap := e.Current()
					if snap == nil {
						continue
					}
					if snap.Idx == nil {
						t.Error("index candidate with nil tree")
						return
					}
					lo, hi := snap.Idx.Range(expr.Interval{
						HasLo: true, Lo: types.NewInt(7), LoIncl: true,
						HasHi: true, Hi: types.NewInt(7), HiIncl: true,
					})
					if hi < lo {
						t.Error("inverted run")
						return
					}
					snap.Idx.NoteGathered(int64(hi - lo))
				}
			}
		}()
	}

	wg.Wait()
	if st := c.Stats(); st.Index.Builds != 50 {
		t.Errorf("builds = %d, want 50", st.Index.Builds)
	}
}
