package hashstash

// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Each benchmark wraps the corresponding experiment from
// internal/experiments at a benchmark-friendly scale; run cmd/hsbench
// for paper-style formatted output at larger scales.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"hashstash/internal/costmodel"
	"hashstash/internal/experiments"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv(0.01) })
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

// BenchmarkFig3Insert measures single-insert cost across hash table
// sizes (Figure 3a's y-axis at width 16B).
func BenchmarkFig3Insert(b *testing.B) {
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "f", Column: "k"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "f", Column: "v"}, Kind: types.Int64},
		},
		KeyCols: 1,
	}
	ht := hashtable.New(layout)
	row := []uint64{0, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row[0] = types.Mix64(uint64(i))
		row[1] = uint64(i)
		ht.Insert(row)
	}
}

// BenchmarkFig3Probe measures single-probe cost (Figure 3b).
func BenchmarkFig3Probe(b *testing.B) {
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "f", Column: "k"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "f", Column: "v"}, Kind: types.Int64},
		},
		KeyCols: 1,
	}
	ht := hashtable.New(layout)
	const n = 1 << 16
	for i := 0; i < n; i++ {
		ht.Insert([]uint64{types.Mix64(uint64(i)), uint64(i)})
	}
	key := []uint64{0}
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0] = types.Mix64(uint64(i % n))
		it := ht.Probe(key)
		for e := it.Next(); e != -1; e = it.Next() {
			sink += int64(e)
		}
	}
	_ = sink
}

// BenchmarkFig3Update measures single in-place update cost (Figure 3c).
func BenchmarkFig3Update(b *testing.B) {
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "f", Column: "k"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "f", Column: "sum"}, Kind: types.Float64},
		},
		KeyCols: 1,
	}
	ht := hashtable.New(layout)
	const n = 1 << 14
	for i := 0; i < n; i++ {
		ht.Upsert([]uint64{types.Mix64(uint64(i))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := ht.Upsert([]uint64{types.Mix64(uint64(i % n))})
		ht.SetCell(e, 1, ht.Cell(e, 1)+1)
	}
}

// BenchmarkFig3Calibration runs the full micro-benchmark grid once per
// iteration (small grid; use hscalibrate for the paper's axes).
func BenchmarkFig3Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := costmodel.Calibrate(costmodel.CalibrateOptions{
			Sizes:       []int64{1 << 10, 1 << 16},
			Widths:      []int{8, 64},
			OpsPerPoint: 2048,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp1SingleQueryReuse regenerates Figures 7a/7b.
func BenchmarkExp1SingleQueryReuse(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Exp1(env, 16)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkExp2QueryLevel regenerates Figure 8a / Table 8b.
func BenchmarkExp2QueryLevel(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Exp2a(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkExp2RHJ regenerates Figure 9a (operator-level join sweep).
func BenchmarkExp2RHJ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Exp2b(20000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkExp2RHA regenerates Figure 9b (operator-level agg sweep).
func BenchmarkExp2RHA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Exp2c(100000, 512)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkExp3Accuracy regenerates Figure 10 (estimated vs actual).
func BenchmarkExp3Accuracy(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Exp3(env, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkExp4Batch regenerates Figure 11 (query-batch interface).
func BenchmarkExp4Batch(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Exp4(env, 32)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkExp5GC regenerates the Section 6.5 GC overhead study.
func BenchmarkExp5GC(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Exp5(env, 16)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkAblation quantifies the Section 3.4 design choices
// (partial/overlapping reuse, benefit-oriented optimizations) on the
// high-reuse workload.
func BenchmarkAblation(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(env, 16)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkQueryAtATime measures one reuse-aware query end to end
// through the public API (quickstart shape).
func BenchmarkQueryAtATime(b *testing.B) {
	db := Open()
	if err := db.LoadTPCH(0.01); err != nil {
		b.Fatal(err)
	}
	const sql = `
		SELECT c.c_age, SUM(l.l_extendedprice) AS revenue
		FROM customer c, orders o, lineitem l
		WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
		  AND l.l_shipdate >= DATE '1995-03-15'
		GROUP BY c.c_age`
	if _, err := db.Exec(sql); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// requireRowsClose compares two unordered result sets: rows pair up by
// their non-float fields (group keys are exact), floats then compare to
// a relative 1e-9.
func requireRowsClose(b *testing.B, got, want *Result) {
	b.Helper()
	if len(got.Rows) != len(want.Rows) {
		b.Fatalf("result has %d rows, want %d", len(got.Rows), len(want.Rows))
	}
	key := func(row []types.Value) string {
		var parts []string
		for _, v := range row {
			if v.Kind == types.Float64 {
				parts = append(parts, "~")
			} else {
				parts = append(parts, v.String())
			}
		}
		return strings.Join(parts, "|")
	}
	sorted := func(r *Result) [][]types.Value {
		rows := append([][]types.Value(nil), r.Rows...)
		sort.Slice(rows, func(i, j int) bool { return key(rows[i]) < key(rows[j]) })
		return rows
	}
	g, w := sorted(got), sorted(want)
	for i := range w {
		for c := range w[i] {
			gv, wv := g[i][c], w[i][c]
			if gv.Kind != wv.Kind {
				b.Fatalf("row %d col %d: kind %v, want %v", i, c, gv.Kind, wv.Kind)
			}
			if gv.Kind == types.Float64 {
				if diff := math.Abs(gv.F - wv.F); diff > 1e-9*math.Max(1, math.Abs(wv.F)) {
					b.Fatalf("row %d col %d: %v != %v (diff %g)", i, c, gv.F, wv.F, diff)
				}
				continue
			}
			if !gv.Equal(wv) {
				b.Fatalf("row %d col %d: %v != %v", i, c, gv, wv)
			}
		}
	}
}

// BenchmarkParallelScanAgg measures morsel-driven parallel execution of
// a scan-heavy TPC-H aggregation (Q1 shape: full lineitem scan, tiny
// group count) against the serial path. The cache is cleared between
// iterations so every run rebuilds its aggregation table — the
// benchmark times the build pipeline, not a cache hit. The acceptance
// bar for the parallel runner is ≥2x at 4 workers.
func BenchmarkParallelScanAgg(b *testing.B) {
	const sql = `
		SELECT l.l_returnflag, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue,
		       COUNT(*) AS n, AVG(l.l_quantity) AS avg_qty
		FROM lineitem l
		GROUP BY l.l_returnflag`
	var golden *Result
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			db := Open(WithTuning(Tuning{Parallelism: workers, MorselRows: 16 * 1024}))
			if err := db.LoadTPCH(0.05); err != nil {
				b.Fatal(err)
			}
			res, err := db.Exec(sql)
			if err != nil {
				b.Fatal(err)
			}
			// Serial-vs-parallel golden results must agree. Non-float
			// fields match exactly; float aggregates only up to summation
			// order (workers fold morsels in claim order), so they compare
			// to a relative tolerance instead of bit equality.
			if golden == nil {
				golden = res
			} else {
				requireRowsClose(b, res, golden)
			}
			db.ClearCache()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(sql); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				db.ClearCache()
				b.StartTimer()
			}
		})
	}
}
