package exec

import (
	"fmt"
	"testing"

	"hashstash/internal/btree"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// BenchmarkSpreadFloor is the sweep behind storage.MinSpreadRows: three
// pipeline shapes of the point-lookup and date-window queries — a scan
// into a string-keyed aggregation, a scan into a join build, and an
// index range into a result collector — over sources of 2K to 64K
// positions. Each size runs at one worker, at two workers under the
// default morsels (the floor decides whether the pipeline spreads), and
// at two workers forced to spread at the balanced granularity
// (workers=2,spread: MorselRows max(MinMorselRows, n/8), what every
// short source did before the floor). The floor belongs where the
// forced spread starts to beat one worker.
func BenchmarkSpreadFloor(b *testing.B) {
	const maxRows = 64 * 1024
	tbl := floorBenchTable(maxRows)
	tree, err := btree.Build(tbl.Column("f_day"))
	if err != nil {
		b.Fatal(err)
	}
	tables := map[int]*storage.Table{}
	for n := 2 * 1024; n <= maxRows; n *= 2 {
		tables[n] = floorBenchTable(n)
	}
	shapes := []struct {
		name string
		mk   func(b *testing.B, n int) *Pipeline
	}{
		{"agg", func(b *testing.B, n int) *Pipeline { return floorAggPipeline(b, tables[n]) }},
		{"build", func(b *testing.B, n int) *Pipeline { return floorBuildPipeline(b, tables[n]) }},
		{"collect", func(b *testing.B, n int) *Pipeline { return floorCollectPipeline(b, tbl, tree, n) }},
	}
	for _, sh := range shapes {
		for n := 2 * 1024; n <= maxRows; n *= 2 {
			for _, v := range []struct {
				name string
				par  Parallelism
			}{
				{"workers=1", Parallelism{Workers: 1}},
				{"workers=2", Parallelism{Workers: 2}},
				{"workers=2,spread", Parallelism{Workers: 2, MorselRows: max(storage.MinMorselRows, n/8)}},
			} {
				b.Run(fmt.Sprintf("%s/rows=%d/%s", sh.name, n, v.name), func(b *testing.B) {
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						p := sh.mk(b, n)
						b.StartTimer()
						if err := RunParallel([]*Pipeline{p}, v.par); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// floorBenchTable builds the sweep's input: a key, a 25-valued string
// segment, a price and a day column holding every day twice (row i has
// day i/2), so a day window [0, n/2) covers n rows.
func floorBenchTable(n int) *storage.Table {
	key := storage.NewColumn("f_key", types.Int64)
	seg := storage.NewColumn("f_seg", types.String)
	price := storage.NewColumn("f_price", types.Float64)
	day := storage.NewColumn("f_day", types.Date)
	for i := 0; i < n; i++ {
		key.Ints = append(key.Ints, int64(i))
		seg.Append(types.NewString(fmt.Sprintf("segment-%02d", i%25)))
		price.Floats = append(price.Floats, float64(i%1000)*0.5)
		day.Ints = append(day.Ints, int64(i/2))
	}
	return storage.NewTable("floor", key, seg, price, day)
}

// floorScan scans every row of the table.
func floorScan(b *testing.B, tbl *storage.Table, cols []string) *TableScan {
	b.Helper()
	src, err := NewTableScan(tbl, "f", nil, cols)
	if err != nil {
		b.Fatal(err)
	}
	return src
}

// floorAggPipeline: SUM(f_price), COUNT(*) GROUP BY f_seg.
func floorAggPipeline(b *testing.B, tbl *storage.Table) *Pipeline {
	src := floorScan(b, tbl, []string{"f_seg", "f_price"})
	segRef := storage.ColRef{Table: "f", Column: "f_seg"}
	sink, err := NewAggHT(hashtable.New(hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: segRef, Kind: types.String},
			{Ref: storage.ColRef{Column: "sum_price"}, Kind: types.Float64},
			{Ref: storage.ColRef{Column: "cnt"}, Kind: types.Int64},
		},
		KeyCols: 1,
		Dict:    tbl.Column("f_seg").Dict,
	}), []storage.ColRef{segRef}, []AggCell{
		{Func: expr.AggSum, InCol: 1, Kind: types.Float64},
		{Func: expr.AggCount, InCol: -1, Kind: types.Int64},
	}, src.Schema())
	if err != nil {
		b.Fatal(err)
	}
	return &Pipeline{Source: src, Sink: sink}
}

// floorBuildPipeline: a join build keyed on f_key carrying f_price.
func floorBuildPipeline(b *testing.B, tbl *storage.Table) *Pipeline {
	src := floorScan(b, tbl, []string{"f_key", "f_price"})
	sink, err := NewBuildHT(hashtable.New(hashtable.Layout{
		Cols:    src.Schema(),
		KeyCols: 1,
	}), src.Schema(), nil)
	if err != nil {
		b.Fatal(err)
	}
	return &Pipeline{Source: src, Sink: sink}
}

// floorCollectPipeline: the rows of an f_day index range of n
// positions, collected unordered.
func floorCollectPipeline(b *testing.B, tbl *storage.Table, tree *btree.Tree, n int) *Pipeline {
	b.Helper()
	con := expr.IntervalConstraint(types.Date, expr.Interval{
		HasLo: true, Lo: types.NewDate(0), LoIncl: true,
		HasHi: true, Hi: types.NewDate(int64(n / 2)),
	})
	src, err := NewIndexScan(tbl, "f", tree, con, nil, []string{"f_key", "f_price"})
	if err != nil {
		b.Fatal(err)
	}
	return &Pipeline{Source: src, Sink: NewCollect(src.Schema(), nil, Order{})}
}
