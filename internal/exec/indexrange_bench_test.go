package exec

// Access-path micro-benchmark: an index-driven range scan vs. the full
// sequential scan over the same table and predicate, across
// selectivities. The per-op loop re-opens and drains the cursors of a
// pre-constructed source — the steady state after the optimizer
// resolved the plan — so allocs/op must stay 0 on both paths. CI emits these into
// BENCH_index.json; the acceptance bar is index >= 5x faster than the
// scan at 1% selectivity.

import (
	"fmt"
	"testing"

	"hashstash/internal/btree"
	"hashstash/internal/expr"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

const idxBenchRows = 200_000

// idxBenchTable builds a 200K-row table with a uniformly distributed
// date column (the indexed selection attribute) and two payload columns.
func idxBenchTable() *storage.Table {
	day := storage.NewColumn("day", types.Date)
	id := storage.NewColumn("id", types.Int64)
	price := storage.NewColumn("price", types.Float64)
	state := uint64(0xbee5)
	for i := 0; i < idxBenchRows; i++ {
		state += 0x9e3779b97f4a7c15
		day.Append(types.NewDate(int64(types.Mix64(state) % 100_000)))
		id.Append(types.NewInt(int64(i)))
		price.Append(types.NewFloat(float64(i % 1000)))
	}
	return storage.NewTable("bench", day, id, price)
}

// idxBenchInterval returns a [0, sel*domain) date window.
func idxBenchInterval(sel float64) expr.Interval {
	return expr.Interval{
		HasLo: true, Lo: types.NewDate(0), LoIncl: true,
		HasHi: true, Hi: types.NewDate(int64(sel * 100_000)), HiIncl: false,
	}
}

// drain opens and streams every cursor into out, materializing every
// column of each batch (a consumer that reads them all), and returns
// the rows produced.
func drain(cursors []Cursor, out *storage.Batch) int {
	rows := 0
	for _, c := range cursors {
		c.Open()
		for c.Next(out) {
			for col := range out.Cols {
				out.Materialize(col)
			}
			rows += out.Len()
			out.Reset()
		}
	}
	return rows
}

// planCursors splits a source into its cursors once, at plan time.
func planCursors(b *testing.B, src Source) []Cursor {
	b.Helper()
	cursors, err := src.Morsels(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	return cursors
}

// BenchmarkIndexRange compares the two access paths at 0.1%, 1% and 10%
// selectivity. Sources and their cursors are constructed once (plan
// time); the measured loop is Open + drain (execution time).
func BenchmarkIndexRange(b *testing.B) {
	tbl := idxBenchTable()
	tree, err := btree.Build(tbl.Column("day"))
	if err != nil {
		b.Fatal(err)
	}
	cols := []string{"day", "id", "price"}

	for _, sel := range []float64{0.001, 0.01, 0.10} {
		iv := idxBenchInterval(sel)
		con := expr.IntervalConstraint(types.Date, iv)
		box := expr.NewBox(expr.Pred{Col: storage.ColRef{Table: "t", Column: "day"}, Con: con})

		b.Run(fmt.Sprintf("index/sel=%g", sel), func(b *testing.B) {
			src, err := NewIndexScan(tbl, "t", tree, con, nil, cols)
			if err != nil {
				b.Fatal(err)
			}
			cursors := planCursors(b, src)
			out := storage.NewBatch(src.Schema())
			b.ReportAllocs()
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				rows = drain(cursors, out)
			}
			if rows == 0 {
				b.Fatal("index scan returned no rows")
			}
		})

		b.Run(fmt.Sprintf("scan/sel=%g", sel), func(b *testing.B) {
			src, err := NewTableScan(tbl, "t", []expr.Box{box}, cols)
			if err != nil {
				b.Fatal(err)
			}
			cursors := planCursors(b, src)
			out := storage.NewBatch(src.Schema())
			b.ReportAllocs()
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				rows = drain(cursors, out)
			}
			if rows == 0 {
				b.Fatal("table scan returned no rows")
			}
		})
	}
}
