package btree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hashstash/internal/expr"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// modelRange computes the expected row-id set for an interval by brute
// force over the column.
func modelRange(col *storage.Column, iv expr.Interval) map[int32]bool {
	want := make(map[int32]bool)
	for i := 0; i < col.Len(); i++ {
		if iv.Contains(col.Value(i)) {
			want[int32(i)] = true
		}
	}
	return want
}

func treeRows(t *Tree, runs [][2]int32) map[int32]bool {
	got := make(map[int32]bool)
	perm := t.Perm()
	for _, r := range runs {
		for _, id := range perm[r[0]:r[1]] {
			got[id] = true
		}
	}
	return got
}

func checkInterval(t *testing.T, tree *Tree, col *storage.Column, iv expr.Interval) {
	t.Helper()
	want := modelRange(col, iv)
	got := treeRows(tree, tree.ConstraintRuns(expr.IntervalConstraint(tree.Kind(), iv)))
	if len(got) != len(want) {
		t.Fatalf("interval %+v: got %d rows, want %d", iv, len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("interval %+v: missing row %d", iv, id)
		}
	}
}

func randInterval(rng *rand.Rand, mk func() types.Value) expr.Interval {
	iv := expr.Interval{}
	if rng.Intn(4) != 0 {
		iv.HasLo, iv.Lo, iv.LoIncl = true, mk(), rng.Intn(2) == 0
	}
	if rng.Intn(4) != 0 {
		iv.HasHi, iv.Hi, iv.HiIncl = true, mk(), rng.Intn(2) == 0
	}
	return iv
}

func TestTreeMatchesSortedSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 2, Fanout, Fanout + 1, Fanout*Fanout + 17, 5000}
	for _, n := range sizes {
		n := n
		t.Run(fmt.Sprintf("int64/n=%d", n), func(t *testing.T) {
			col := storage.NewColumn("k", types.Int64)
			for i := 0; i < n; i++ {
				col.Ints = append(col.Ints, int64(rng.Intn(n/4+10)))
			}
			tree, err := Build(col)
			if err != nil {
				t.Fatal(err)
			}
			if tree.Len() != n {
				t.Fatalf("Len = %d, want %d", tree.Len(), n)
			}
			if h := tree.Height(); h != EstimateHeight(n) {
				t.Fatalf("Height = %d, EstimateHeight = %d", h, EstimateHeight(n))
			}
			for trial := 0; trial < 60; trial++ {
				iv := randInterval(rng, func() types.Value { return types.NewInt(int64(rng.Intn(n/4+12) - 1)) })
				checkInterval(t, tree, col, iv)
			}
		})
		t.Run(fmt.Sprintf("date/n=%d", n), func(t *testing.T) {
			col := storage.NewColumn("d", types.Date)
			for i := 0; i < n; i++ {
				col.Ints = append(col.Ints, int64(9000+rng.Intn(n+10)))
			}
			tree, err := Build(col)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 40; trial++ {
				iv := randInterval(rng, func() types.Value { return types.NewDate(int64(9000 + rng.Intn(n+12))) })
				checkInterval(t, tree, col, iv)
			}
		})
		t.Run(fmt.Sprintf("float64/n=%d", n), func(t *testing.T) {
			col := storage.NewColumn("f", types.Float64)
			for i := 0; i < n; i++ {
				col.Floats = append(col.Floats, math.Round(rng.Float64()*100)/4)
			}
			tree, err := Build(col)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 40; trial++ {
				iv := randInterval(rng, func() types.Value { return types.NewFloat(math.Round(rng.Float64()*100) / 4) })
				checkInterval(t, tree, col, iv)
			}
		})
		t.Run(fmt.Sprintf("string/n=%d", n), func(t *testing.T) {
			vocab := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}
			col := storage.NewColumn("s", types.String)
			for i := 0; i < n; i++ {
				col.Append(types.NewString(vocab[rng.Intn(len(vocab))]))
			}
			tree, err := Build(col)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 30; trial++ {
				set := map[string]bool{}
				for k := rng.Intn(4); k >= 0; k-- {
					set[vocab[rng.Intn(len(vocab))]] = true
				}
				set["absent-"+vocab[rng.Intn(len(vocab))]] = true
				var vals []string
				for s := range set {
					vals = append(vals, s)
				}
				sort.Strings(vals)
				con := expr.SetConstraint(vals...)
				want := make(map[int32]bool)
				for i := 0; i < n; i++ {
					if set[col.Value(i).S] {
						want[int32(i)] = true
					}
				}
				got := treeRows(tree, tree.ConstraintRuns(con))
				if len(got) != len(want) {
					t.Fatalf("set %v: got %d rows, want %d", vals, len(got), len(want))
				}
				for id := range want {
					if !got[id] {
						t.Fatalf("set %v: missing row %d", vals, id)
					}
				}
			}
		})
	}
}

func TestTreePermIsStableWithinEqualKeys(t *testing.T) {
	col := storage.NewColumn("k", types.Int64)
	col.Ints = []int64{3, 1, 3, 1, 3, 2}
	tree, err := Build(col)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 3, 5, 0, 2, 4}
	for i, id := range tree.Perm() {
		if id != want[i] {
			t.Fatalf("perm = %v, want %v", tree.Perm(), want)
		}
	}
}

func TestBuildRejectsNaN(t *testing.T) {
	col := storage.NewColumn("f", types.Float64)
	col.Floats = []float64{1, math.NaN(), 3}
	if _, err := Build(col); err == nil {
		t.Fatal("Build accepted a NaN column")
	}
}

func TestEmptyAndReversedIntervals(t *testing.T) {
	col := storage.NewColumn("k", types.Int64)
	for i := 0; i < 100; i++ {
		col.Ints = append(col.Ints, int64(i))
	}
	tree, err := Build(col)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed bounds: lo > hi must yield an empty range, not a panic.
	iv := expr.Interval{HasLo: true, Lo: types.NewInt(80), LoIncl: true, HasHi: true, Hi: types.NewInt(20), HiIncl: true}
	if lo, hi := tree.Range(iv); hi != lo {
		t.Fatalf("reversed interval returned [%d,%d)", lo, hi)
	}
	// Exclusive-exclusive adjacent bounds: (5, 6) is empty for ints.
	iv = expr.Interval{HasLo: true, Lo: types.NewInt(5), HasHi: true, Hi: types.NewInt(6)}
	if lo, hi := tree.Range(iv); hi != lo {
		t.Fatalf("(5,6) returned [%d,%d)", lo, hi)
	}
}

func TestStatsCounters(t *testing.T) {
	col := storage.NewColumn("k", types.Int64)
	for i := 0; i < 10; i++ {
		col.Ints = append(col.Ints, int64(i))
	}
	tree, err := Build(col)
	if err != nil {
		t.Fatal(err)
	}
	tree.ConstraintRuns(expr.IntervalConstraint(types.Int64, expr.Interval{HasLo: true, Lo: types.NewInt(3), LoIncl: true}))
	tree.NoteGathered(7)
	st := tree.Stats()
	if st.RangeProbes != 1 || st.RowsGathered != 7 {
		t.Fatalf("stats = %+v", st)
	}
}
