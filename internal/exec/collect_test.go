package exec

import (
	"fmt"
	"slices"
	"testing"

	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// rowsOf is a finished collector's answer boxed row by row: the one way
// tests read an answer as rows.
func rowsOf(c *Collect) [][]types.Value {
	rows := make([][]types.Value, c.Len())
	for r := range rows {
		rows[r] = make([]types.Value, len(c.Cols))
		for i := range c.Cols {
			rows[r][i] = c.Cols[i].Value(r)
		}
	}
	return rows
}

// TestCollectOrder: a Collect's ORDER BY / LIMIT equals the prefix of a
// stable sort of its unordered rows — exactly on one worker, where
// arrival order is scan order, and on the order column (plus the row
// multiset when nothing is cut) on four workers, whose arrival order
// varies. Keys cover ints, floats and strings with heavy ties.
func TestCollectOrder(t *testing.T) {
	const n = 6000
	tbl := bigTable(n, 13)
	cols := []string{"b_key", "b_grp", "b_val", "b_tag"}
	run := func(order Order, par Parallelism) [][]types.Value {
		src, err := NewTableScan(tbl, "b", nil, cols)
		if err != nil {
			t.Fatal(err)
		}
		collect := NewCollect(src.Schema(), nil, order)
		if err := RunParallel([]*Pipeline{{Source: src, Sink: collect}}, par); err != nil {
			t.Fatal(err)
		}
		return rowsOf(collect)
	}
	all := run(Order{}, Parallelism{Workers: 1})
	if len(all) != n {
		t.Fatalf("%d rows, want %d", len(all), n)
	}
	for _, col := range []int{1, 2, 3} {
		for _, desc := range []bool{false, true} {
			want := slices.Clone(all)
			slices.SortStableFunc(want, func(a, b []types.Value) int {
				c := a[col].Compare(b[col])
				if desc {
					return -c
				}
				return c
			})
			for _, limit := range []int{0, 1, 100, n - 1, n, n + 1} {
				label := fmt.Sprintf("col %d desc=%v limit %d", col, desc, limit)
				cut := want
				if limit > 0 && limit < n {
					cut = want[:limit]
				}
				order := Order{Sort: true, Col: col, Desc: desc, Limit: limit}
				if got := run(order, Parallelism{Workers: 1}); fmt.Sprint(got) != fmt.Sprint(cut) {
					t.Fatalf("%s, one worker: rows differ from the stable sort", label)
				}
				got := run(order, Parallelism{Workers: 4, MorselRows: 512})
				if len(got) != len(cut) {
					t.Fatalf("%s, four workers: %d rows, want %d", label, len(got), len(cut))
				}
				for i := range cut {
					if got[i][col].Compare(cut[i][col]) != 0 {
						t.Fatalf("%s, four workers: row %d key %v, want %v", label, i, got[i][col], cut[i][col])
					}
				}
				if len(cut) == n {
					assertSameRows(t, cut, got)
				}
			}
		}
	}
	// A LIMIT without ORDER BY keeps the first rows in arrival order.
	if got := run(Order{Limit: 10}, Parallelism{Workers: 1}); fmt.Sprint(got) != fmt.Sprint(all[:10]) {
		t.Fatal("limit without order: not the first ten rows")
	}
}

// TestCollectParts: a collector's answer is its batches' rows in
// arrival order whether the batches defer their columns or carry them,
// however the batches are split between worker collectors, under a
// LIMIT and under a top-k; an input column collected twice reads the
// same both times. A batch that changes the deferral is refused.
func TestCollectParts(t *testing.T) {
	schema := storage.Schema{
		{Ref: storage.ColRef{Table: "t", Column: "k"}, Kind: types.Int64},
		{Ref: storage.ColRef{Table: "t", Column: "s"}, Kind: types.String},
	}
	out := append(slices.Clone(schema), schema[0])
	keys := &storage.Column{Name: "k", Kind: types.Int64, Ints: []int64{10, 11, 12, 13, 14}}
	tags := storage.NewColumn("s", types.String)
	for _, s := range []string{"a", "b", "c", "d", "e"} {
		tags.Append(types.NewString(s))
	}
	deferred := func(ids ...int32) *storage.Batch {
		b := storage.NewBatch(schema)
		b.AppendIDs(ids)
		b.Defer(0, keys)
		b.Defer(1, tags)
		return b
	}
	eager := func(ids ...int32) *storage.Batch {
		b := storage.NewBatch(schema)
		for _, id := range ids {
			b.Cols[0].Ints = append(b.Cols[0].Ints, keys.Ints[id])
			b.Cols[1].AppendFrom(tags, id)
		}
		return b
	}
	collect := func(batches []*storage.Batch, order Order, split int) string {
		target := NewCollect(out, []int{0, 1, 0}, order)
		if split == 0 {
			for _, b := range batches {
				target.Consume(b)
			}
		} else {
			for _, part := range [][]*storage.Batch{batches[:split], batches[split:]} {
				w := NewCollect(out, []int{0, 1, 0}, Order{})
				for _, b := range part {
					w.Consume(b)
				}
				target.absorb(w)
			}
		}
		target.Finish()
		if target.Len() != len(target.Cols[0].Ints) {
			t.Fatalf("split %d: Len %d, answer has %d rows", split, target.Len(), len(target.Cols[0].Ints))
		}
		return fmt.Sprint(rowsOf(target))
	}
	for name, batch := range map[string]func(...int32) *storage.Batch{"deferred": deferred, "eager": eager} {
		batches := []*storage.Batch{batch(3, 1), batch(4), batch(2, 0)}
		for _, split := range []int{0, 1, 2} {
			if got, want := collect(batches, Order{}, split), "[[13 d 13] [11 b 11] [14 e 14] [12 c 12] [10 a 10]]"; got != want {
				t.Fatalf("%s, split %d: %s, want %s", name, split, got, want)
			}
			if got, want := collect(batches, Order{Limit: 4}, split), "[[13 d 13] [11 b 11] [14 e 14] [12 c 12]]"; got != want {
				t.Fatalf("%s, split %d, limit 4: %s, want %s", name, split, got, want)
			}
			if got, want := collect(batches, Order{Sort: true, Col: 0, Desc: true, Limit: 3}, split), "[[14 e 14] [13 d 13] [12 c 12]]"; got != want {
				t.Fatalf("%s, split %d, top 3: %s, want %s", name, split, got, want)
			}
		}
		if got, want := collect(batches[1:2], Order{}, 0), "[[14 e 14]]"; got != want {
			t.Fatalf("%s, one batch: %s, want %s", name, got, want)
		}
		// One worker's lone part is cut by the target's LIMIT.
		if got, want := collect(batches[2:], Order{Limit: 1}, 1), "[[12 c 12]]"; got != want {
			t.Fatalf("%s, one worker part, limit 1: %s, want %s", name, got, want)
		}
	}

	// A batch deferred to other base columns is refused, not read
	// through the first batch's — by one collector or at the merge.
	other := deferred(1)
	other.Defer(0, &storage.Column{Name: "k", Kind: types.Int64, Ints: []int64{20, 21}})
	for _, split := range []int{0, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("split %d: a batch that changed the deferral was collected", split)
				}
			}()
			collect([]*storage.Batch{deferred(0), other}, Order{}, split)
		}()
	}
}
