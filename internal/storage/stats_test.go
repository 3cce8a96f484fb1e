package storage_test

import (
	"math"
	"sync"
	"testing"

	"hashstash/internal/catalog"
	"hashstash/internal/expr"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

func statsTable() *storage.Table {
	a := storage.NewColumn("a", types.Int64)
	b := storage.NewColumn("b", types.String)
	for i := 0; i < 100; i++ {
		a.Append(types.NewInt(int64(i % 10)))
		b.Append(types.NewString(string(rune('a' + i%3))))
	}
	return storage.NewTable("t", a, b)
}

// TestColumnStatsLazy: construction, appends and catalog registration
// count nothing; reading one column's statistics counts only that
// column.
func TestColumnStatsLazy(t *testing.T) {
	tbl := statsTable()
	cat := catalog.New()
	cat.Register(tbl)
	ts, ok := cat.Stats("t")
	if !ok || ts.Rows != 100 {
		t.Fatalf("Stats = %+v, %v", ts, ok)
	}
	for _, c := range tbl.Cols {
		if c.StatsComputed() {
			t.Fatalf("column %q counted before its first read", c.Name)
		}
	}
	if cs, _ := ts.Col("a"); cs.NDV != 10 {
		t.Fatalf("a: NDV = %d, want 10", cs.NDV)
	}
	if !tbl.Column("a").StatsComputed() || tbl.Column("b").StatsComputed() {
		t.Fatal("reading a's statistics must count a and only a")
	}
}

// TestColumnStatsCachedUntilAppend: a second read returns the cached
// result (an in-place write, which columns never see in use, is not
// noticed), and a read after Append counts again.
func TestColumnStatsCachedUntilAppend(t *testing.T) {
	c := statsTable().Column("a")
	first := c.Stats()
	if first.Min.I != 0 || first.Max.I != 9 || first.NDV != 10 {
		t.Fatalf("first = %+v", first)
	}
	c.Ints[0] = 1000
	if again := c.Stats(); again != first {
		t.Fatalf("second read recounted: %+v, want %+v", again, first)
	}
	c.Append(types.NewInt(50))
	moved := c.Stats()
	if moved.Min.I != 0 || moved.Max.I != 1000 || moved.NDV != 12 {
		t.Fatalf("after Append = %+v, want min 0, max 1000, NDV 12", moved)
	}
}

// TestColumnStatsConcurrentFirstRead: eight goroutines reading a fresh
// column at once agree with a serial count (run under -race).
func TestColumnStatsConcurrentFirstRead(t *testing.T) {
	want := statsTable().Column("b").Stats()
	c := statsTable().Column("b")
	got := make([]storage.ColumnStats, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.Stats()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("reader %d: %+v, want %+v", i, g, want)
		}
	}
	if want.NDV != 3 || want.Min.S != "a" || want.Max.S != "c" {
		t.Errorf("b = %+v", want)
	}
}

// TestColumnStatsNaN: NaN is left out of Min and Max and counted as one
// distinct value, wherever it sits and however many rows hold it; an
// all-NaN column is single-valued (Min and Max NaN, NDV 1). The
// optimizer's selectivity over each column is a finite fraction.
func TestColumnStatsNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name     string
		vals     []float64
		min, max float64 // NaN when the column holds only NaN
		ndv      int64
	}{
		{"leading NaN", []float64{nan, 1, 5, 3}, 1, 5, 4},
		{"NaN twice inside", []float64{1, nan, 5, 3, nan}, 1, 5, 4},
		{"only NaN", []float64{nan, nan, nan}, nan, nan, 1},
	}
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	for _, tc := range cases {
		c := storage.NewColumn("v", types.Float64)
		for _, v := range tc.vals {
			c.Append(types.NewFloat(v))
		}
		cs := c.Stats()
		if !same(cs.Min.F, tc.min) || !same(cs.Max.F, tc.max) || cs.NDV != tc.ndv {
			t.Errorf("%s: stats = %+v, want min %v, max %v, NDV %d", tc.name, cs, tc.min, tc.max, tc.ndv)
		}
		cat := catalog.New()
		cat.Register(storage.NewTable("t", c))
		ts, _ := cat.Stats("t")
		for _, iv := range []expr.Interval{
			{HasLo: true, Lo: types.NewFloat(2), LoIncl: true},
			{HasHi: true, Hi: types.NewFloat(4), HiIncl: true},
			expr.PointInterval(types.NewFloat(3)),
		} {
			box := expr.NewBox(expr.Pred{
				Col: storage.ColRef{Table: "t", Column: "v"},
				Con: expr.IntervalConstraint(types.Float64, iv),
			})
			if s := ts.Selectivity(box); math.IsNaN(s) || s < 0 || s > 1 {
				t.Errorf("%s: selectivity of %v = %v", tc.name, iv, s)
			}
		}
	}
}
