package storage_test

import (
	"sync"
	"testing"

	"hashstash/internal/catalog"
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
