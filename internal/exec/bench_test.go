package exec

// Operator micro-benchmarks for the vectorized inner loops. These track
// the steady-state per-batch cost of the hot paths (ns/op and allocs/op
// must stay ~0 in the operator loops); CI's bench smoke emits them into
// BENCH_vectorize.json so the trajectory is visible across PRs.

import (
	"context"
	"testing"

	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// benchSchema is a four-kind schema exercising every typed kernel.
func benchSchema() storage.Schema {
	return storage.Schema{
		{Ref: storage.ColRef{Table: "l", Column: "id"}, Kind: types.Int64},
		{Ref: storage.ColRef{Table: "l", Column: "price"}, Kind: types.Float64},
		{Ref: storage.ColRef{Table: "l", Column: "flag"}, Kind: types.String},
		{Ref: storage.ColRef{Table: "l", Column: "day"}, Kind: types.Date},
	}
}

// benchBatch fills a batch of n rows over benchSchema with deterministic
// values that give the filter predicates ~50% selectivity.
func benchBatch(n int) *storage.Batch {
	b := storage.NewBatch(benchSchema())
	flags := []string{"A", "N", "R", "F"}
	for i := 0; i < n; i++ {
		b.Cols[0].Ints = append(b.Cols[0].Ints, int64(i))
		b.Cols[1].Floats = append(b.Cols[1].Floats, float64(i%100))
		b.Cols[2].Append(types.NewString(flags[i%len(flags)]))
		b.Cols[3].Ints = append(b.Cols[3].Ints, int64(9000+i%365))
	}
	return b
}

// BenchmarkFilterProject measures one batch flowing through a
// three-predicate filter and a three-column projection. The loop body is
// the steady-state inner loop of every scan-filter-project pipeline.
func BenchmarkFilterProject(b *testing.B) {
	in := benchBatch(storage.BatchSize)
	schema := in.Schema
	box := expr.NewBox(
		expr.Pred{Col: schema[1].Ref, Con: expr.IntervalConstraint(types.Float64,
			expr.Interval{HasLo: true, Lo: types.NewFloat(25), LoIncl: true, HasHi: true, Hi: types.NewFloat(90), HiIncl: false})},
		expr.Pred{Col: schema[2].Ref, Con: expr.SetConstraint("A", "N")},
		expr.Pred{Col: schema[3].Ref, Con: expr.IntervalConstraint(types.Date,
			expr.Interval{HasLo: true, Lo: types.NewDate(9100), LoIncl: true})},
	)
	filter, err := NewFilter(box, schema, in.Cols[2].Dict)
	if err != nil {
		b.Fatal(err)
	}
	project, err := NewProject([]int{0, 1, 2}, nil, filter.OutSchema())
	if err != nil {
		b.Fatal(err)
	}
	mid := storage.NewBatch(filter.OutSchema())
	out := storage.NewBatch(project.OutSchema())
	step := func() {
		mid.Reset()
		filter.Apply(in, mid)
		out.Reset()
		project.Apply(mid, out)
	}
	step() // batches start empty: grow them to one batch first
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	if out.Len() == 0 {
		b.Fatal("filter dropped everything")
	}
	b.SetBytes(int64(in.Len()))
}

// BenchmarkProbeJoin measures one batch probing a 64K-entry hash table
// (int64 key, float64 + string payload), with and without a subsuming
// post-filter — the per-batch cost of the reuse-aware hash join's probe
// phase.
func BenchmarkProbeJoin(b *testing.B) {
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "orders", Column: "okey"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "orders", Column: "total"}, Kind: types.Float64},
			{Ref: storage.ColRef{Table: "orders", Column: "prio"}, Kind: types.String},
		},
		KeyCols: 1,
		Dict:    storage.NewDict(),
	}
	const nBuild = 1 << 16
	ht := hashtable.New(layout)
	prios := []string{"1-URGENT", "2-HIGH", "3-MEDIUM"}
	for i := 0; i < nBuild; i++ {
		ht.Insert([]uint64{uint64(i), types.NewFloat(float64(i)).Bits(), ht.EncodeValue(types.NewString(prios[i%len(prios)]))})
	}

	in := benchBatch(storage.BatchSize)
	// Probe keys: id column modulo the build size → every row matches.
	for i := range in.Cols[0].Ints {
		in.Cols[0].Ints[i] = int64(i % nBuild)
	}

	for _, bc := range []struct {
		name string
		pf   expr.Box
	}{
		{"hit", nil},
		{"postfilter", expr.NewBox(expr.Pred{
			Col: storage.ColRef{Table: "orders", Column: "total"},
			Con: expr.IntervalConstraint(types.Float64,
				expr.Interval{HasLo: true, Lo: types.NewFloat(0), LoIncl: true, HasHi: true, Hi: types.NewFloat(nBuild / 2), HiIncl: false}),
		})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			probe, err := NewProbe(ht, []storage.ColRef{{Table: "l", Column: "id"}}, []int{1, 2}, nil, bc.pf, in.Schema)
			if err != nil {
				b.Fatal(err)
			}
			out := storage.NewBatch(probe.OutSchema())
			probe.Apply(in, out) // batches start empty: grow out to one batch first
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out.Reset()
				probe.Apply(in, out)
			}
			if out.Len() == 0 {
				b.Fatal("probe matched nothing")
			}
			b.SetBytes(int64(in.Len()))
		})
	}
}

// schedBenchTable builds the scan input of the scheduler benchmarks:
// key, group (97 groups) and value columns.
func schedBenchTable(n int) *storage.Table {
	key := storage.NewColumn("b_key", types.Int64)
	grp := storage.NewColumn("b_grp", types.Int64)
	val := storage.NewColumn("b_val", types.Float64)
	for i := 0; i < n; i++ {
		key.Ints = append(key.Ints, int64(i))
		grp.Ints = append(grp.Ints, int64(i%97))
		val.Floats = append(val.Floats, float64(i)*0.25)
	}
	return storage.NewTable("big", key, grp, val)
}

// schedAggPipeline compiles scan(tbl) -> grouped SUM/COUNT.
func schedAggPipeline(b *testing.B, tbl *storage.Table) *Pipeline {
	b.Helper()
	src, err := NewTableScan(tbl, "b", nil, []string{"b_grp", "b_val"})
	if err != nil {
		b.Fatal(err)
	}
	grpRef := storage.ColRef{Table: "b", Column: "b_grp"}
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: grpRef, Kind: types.Int64},
			{Ref: storage.ColRef{Column: "sum_val"}, Kind: types.Float64},
			{Ref: storage.ColRef{Column: "cnt"}, Kind: types.Int64},
		},
		KeyCols: 1,
	}
	aggs := []AggCell{
		{Func: expr.AggSum, InCol: src.Schema().MustIndexOf(storage.ColRef{Table: "b", Column: "b_val"}), Kind: types.Float64},
		{Func: expr.AggCount, InCol: -1, Kind: types.Int64},
	}
	sink, err := NewAggHT(hashtable.New(layout), []storage.ColRef{grpRef}, aggs, src.Schema())
	if err != nil {
		b.Fatal(err)
	}
	return &Pipeline{Source: src, Sink: sink}
}

// BenchmarkSchedScanAgg measures one scan-aggregate pipeline through
// the morsel scheduler: 4 workers popping fine morsels from the shared
// queue, partial tables merged at the end (the queue and merge are the
// cost under test; on a 1-CPU runner the gate is alloc stability, not
// speedup).
func BenchmarkSchedScanAgg(b *testing.B) {
	tbl := schedBenchTable(256 * 1024)
	par := Parallelism{Workers: 4, MorselRows: 8 * 1024}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := schedAggPipeline(b, tbl)
		b.StartTimer()
		if err := RunParallel([]*Pipeline{p}, par); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(tbl.NumRows()))
}

// BenchmarkSchedPipelineChain measures one query chain of eight
// pipelines in compile order: four scan-aggregations, then a readout of
// each aggregation table.
func BenchmarkSchedPipelineChain(b *testing.B) {
	tbl := schedBenchTable(64 * 1024)
	mk := func() []*Pipeline {
		var pipelines []*Pipeline
		var readouts []*Pipeline
		for i := 0; i < 4; i++ {
			p := schedAggPipeline(b, tbl)
			ht := p.Sink.(*AggHT).HT
			src, err := NewHTScan(ht, []int{0, 1, 2}, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			pipelines = append(pipelines, p)
			readouts = append(readouts, &Pipeline{Source: src, Sink: NewCollect(src.Schema(), nil, Order{})})
		}
		return append(pipelines, readouts...)
	}
	par := Parallelism{Workers: 4, MorselRows: 8 * 1024}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pipelines := mk()
		b.StartTimer()
		if err := RunParallel(pipelines, par); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(tbl.NumRows()) * 4)
}

// BenchmarkBuildAgg measures one batch being consumed by a hash
// aggregation sink (grouped SUM/COUNT) — the build-side counterpart of
// BenchmarkProbeJoin.
func BenchmarkBuildAgg(b *testing.B) {
	in := benchBatch(storage.BatchSize)
	schema := in.Schema
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "l", Column: "flag"}, Kind: types.String},
			{Ref: storage.ColRef{Table: "", Column: "sum_price"}, Kind: types.Float64},
			{Ref: storage.ColRef{Table: "", Column: "n"}, Kind: types.Int64},
		},
		KeyCols: 1,
		Dict:    in.Cols[2].Dict,
	}
	aggs := []AggCell{
		{Func: expr.AggSum, InCol: 1, Kind: types.Float64},
		{Func: expr.AggCount, InCol: -1, Kind: types.Int64},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink *AggHT
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			// Fresh table periodically so the group set stays small and the
			// benchmark measures the upsert-fold loop, not table growth.
			b.StopTimer()
			var err error
			sink, err = NewAggHT(hashtable.New(layout), []storage.ColRef{schema[2].Ref}, aggs, schema)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		sink.Consume(in)
	}
	b.SetBytes(int64(in.Len()))
}

// BenchmarkScanProbeAgg measures one 16-batch scan streaming through a
// probe that 90 % of its rows miss into a grouped SUM/COUNT — the
// pipeline shape late materialization serves: the scan hands row ids
// on, the probe reads only its key, and the aggregate gathers its
// columns for the surviving 10 % only. The loop body is the runner's
// own streaming loop over pre-split cursors and per-stage batches.
func BenchmarkScanProbeAgg(b *testing.B) {
	const rows = 16 * storage.BatchSize
	tbl := schedBenchTable(rows)
	ht := hashtable.New(hashtable.Layout{
		Cols:    []storage.ColMeta{{Ref: storage.ColRef{Table: "d", Column: "d_key"}, Kind: types.Int64}},
		KeyCols: 1,
	})
	hits := int64(0) // probe rows that match: every tenth key
	for k := 0; k < rows; k += 10 {
		ht.Insert([]uint64{uint64(k)})
		hits++
	}
	src, err := NewTableScan(tbl, "b", nil, []string{"b_key", "b_grp", "b_val"})
	if err != nil {
		b.Fatal(err)
	}
	probe, err := NewProbe(ht, []storage.ColRef{{Table: "b", Column: "b_key"}}, nil, nil, nil, src.Schema())
	if err != nil {
		b.Fatal(err)
	}
	grpRef := storage.ColRef{Table: "b", Column: "b_grp"}
	agg, err := NewAggHT(hashtable.New(hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: grpRef, Kind: types.Int64},
			{Ref: storage.ColRef{Column: "sum_val"}, Kind: types.Float64},
			{Ref: storage.ColRef{Column: "cnt"}, Kind: types.Int64},
		},
		KeyCols: 1,
	}), []storage.ColRef{grpRef}, []AggCell{
		{Func: expr.AggSum, InCol: 2, Kind: types.Float64},
		{Func: expr.AggCount, InCol: -1, Kind: types.Int64},
	}, probe.OutSchema())
	if err != nil {
		b.Fatal(err)
	}
	p := &Pipeline{Source: src, Transforms: []Transform{probe}, Sink: agg}
	cursors, err := src.Morsels(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	batches := p.newBatches()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.stream(context.Background(), cursors, batches, agg); err != nil {
			b.Fatal(err)
		}
	}
	if in, out := p.Stats(); out*rows != in*hits {
		b.Fatalf("%d of %d rows reached the aggregate, want %d per scan", out, in, hits)
	}
	b.SetBytes(rows)
}
