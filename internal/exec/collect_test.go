package exec

import (
	"fmt"
	"slices"
	"testing"

	"hashstash/internal/types"
)

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
		return collect.Rows
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
