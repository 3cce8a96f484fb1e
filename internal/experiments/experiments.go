// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment returns a structured result
// with a Format method that prints the same rows/series the paper
// reports; cmd/hsbench drives them and bench_test.go wraps them as Go
// benchmarks.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"hashstash/internal/catalog"
	"hashstash/internal/costmodel"
	"hashstash/internal/htcache"
	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/shared"
	"hashstash/internal/tpch"
	"hashstash/internal/workload"
)

// Env bundles the data and engines an experiment runs against.
type Env struct {
	SF  float64
	Cat *catalog.Catalog
}

// NewEnv generates a TPC-H database at the scale factor.
func NewEnv(sf float64) (*Env, error) {
	cat := catalog.New()
	db, err := tpch.Generate(tpch.Config{SF: sf, Dict: cat.Dict()})
	if err != nil {
		return nil, err
	}
	for _, t := range db.Tables() {
		cat.Register(t)
	}
	return &Env{SF: sf, Cat: cat}, nil
}

// newOptimizer builds a fresh reuse-aware optimizer with its own cache.
func (e *Env) newOptimizer(strategy optimizer.Strategy, budget int64) *optimizer.Optimizer {
	return optimizer.New(e.Cat, htcache.New(budget), nil, optimizer.Options{Strategy: strategy})
}

// runTrace executes a query sequence and reports the total wall time.
func runTrace(run func(*plan.Query) (*optimizer.Result, error), steps []workload.Step) (time.Duration, error) {
	var total time.Duration
	for i := range steps {
		t0 := time.Now()
		if _, err := run(steps[i].Query); err != nil {
			return 0, fmt.Errorf("step %d (%v): %w", i, steps[i].Kind, err)
		}
		total += time.Since(t0)
	}
	return total, nil
}

// Exp1Row is one workload level's outcome (Figure 7a + 7b).
type Exp1Row struct {
	Level workload.Level

	NoReuseTime      time.Duration
	MaterializedTime time.Duration
	HashStashTime    time.Duration

	// Speedups over the no-reuse baseline, in percent (Figure 7a).
	MaterializedSpeedup float64
	HashStashSpeedup    float64

	// Figure 7b statistics. Both engines cache hash tables at the same
	// pipeline breakers, so both memory columns are hash-table bytes.
	MaterializedBytes    int64
	HashStashBytes       int64
	MaterializedHitRatio float64
	HashStashHitRatio    float64
}

// Exp1Result is the full Experiment 1 outcome.
type Exp1Result struct {
	Rows []Exp1Row
	N    int
	SF   float64
}

// Exp1 runs the single-query reuse comparison (Figures 7a and 7b):
// three 64-query workloads (low/medium/high reuse potential) executed
// under no-reuse, materialization-based reuse, and HashStash.
func Exp1(env *Env, n int) (*Exp1Result, error) {
	out := &Exp1Result{N: n, SF: env.SF}
	for _, level := range []workload.Level{workload.Low, workload.Medium, workload.High} {
		steps := workload.Generate(workload.Config{Level: level, N: n})

		noReuse := env.newOptimizer(optimizer.NeverReuse, 0)
		tNo, err := runTrace(noReuse.Run, steps)
		if err != nil {
			return nil, fmt.Errorf("no-reuse %v: %w", level, err)
		}

		mat := env.newOptimizer(optimizer.Materialized, 0)
		tMat, err := runTrace(mat.Run, steps)
		if err != nil {
			return nil, fmt.Errorf("materialized %v: %w", level, err)
		}

		hs := env.newOptimizer(optimizer.CostModel, 0)
		tHS, err := runTrace(hs.Run, steps)
		if err != nil {
			return nil, fmt.Errorf("hashstash %v: %w", level, err)
		}

		row := Exp1Row{
			Level:            level,
			NoReuseTime:      tNo,
			MaterializedTime: tMat,
			HashStashTime:    tHS,
		}
		row.MaterializedSpeedup = speedupPct(tNo, tMat)
		row.HashStashSpeedup = speedupPct(tNo, tHS)
		ms := mat.Cache.Stats()
		hss := hs.Cache.Stats()
		row.MaterializedBytes = ms.Bytes
		row.HashStashBytes = hss.Bytes
		row.MaterializedHitRatio = ms.HitRatio
		row.HashStashHitRatio = hss.HitRatio
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func speedupPct(base, t time.Duration) float64 {
	if t <= 0 {
		return 0
	}
	return (float64(base)/float64(t) - 1) * 100
}

// Format renders the Figure 7a/7b tables.
func (r *Exp1Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment 1 — Single-Query Reuse (SF=%.3f, %d queries per workload)\n", r.SF, r.N)
	b.WriteString("Figure 7a — speed-up over no-reuse (%):\n")
	fmt.Fprintf(&b, "  %-10s %14s %12s\n", "workload", "Materialized", "HashStash")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %13.1f%% %11.1f%%\n", row.Level, row.MaterializedSpeedup, row.HashStashSpeedup)
	}
	b.WriteString("Figure 7b — workload statistics:\n")
	fmt.Fprintf(&b, "  %-10s %-14s %12s %10s %12s\n", "workload", "strategy", "mem size", "hit ratio", "time")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %-14s %12s %10.2f %12v\n", row.Level, "Materialized",
			fmtBytes(row.MaterializedBytes), row.MaterializedHitRatio, row.MaterializedTime.Round(time.Millisecond))
		fmt.Fprintf(&b, "  %-10s %-14s %12s %10.2f %12v\n", "", "HashStash",
			fmtBytes(row.HashStashBytes), row.HashStashHitRatio, row.HashStashTime.Round(time.Millisecond))
		fmt.Fprintf(&b, "  %-10s %-14s %12s %10s %12v\n", "", "No-reuse", "-", "-", row.NoReuseTime.Round(time.Millisecond))
	}
	return b.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// Exp4Row is one batch size's outcome (Figure 11).
type Exp4Row struct {
	BatchSize        int
	SingleNoReuse    time.Duration
	SingleWithReuse  time.Duration
	SharedWithReuse  time.Duration
	SharedPlansAvg   float64
	BatchesExecuted  int
	SharedReductions float64 // % vs single-no-reuse
}

// Exp4Result is the query-batch comparison.
type Exp4Result struct {
	Rows []Exp4Row
	SF   float64
}

// Exp4 reproduces Figure 11: the medium-reuse trace grouped into
// batches of 4, 8 and 16 queries, executed as (a) single plans without
// reuse, (b) single reuse-aware plans, (c) reuse-aware shared plans.
func Exp4(env *Env, queriesTotal int) (*Exp4Result, error) {
	out := &Exp4Result{SF: env.SF}
	steps := workload.Generate(workload.Config{Level: workload.Medium, N: queriesTotal})
	for _, size := range []int{4, 8, 16} {
		nBatches := len(steps) / size
		if nBatches == 0 {
			continue
		}
		var tNo, tReuse, tShared time.Duration
		sharedPlans := 0

		noReuse := env.newOptimizer(optimizer.NeverReuse, 0)
		reuse := env.newOptimizer(optimizer.CostModel, 0)
		sharedOpt := env.newOptimizer(optimizer.CostModel, 0)

		for bi := 0; bi < nBatches; bi++ {
			batch := steps[bi*size : (bi+1)*size]
			queries := make([]*plan.Query, len(batch))
			for i := range batch {
				queries[i] = batch[i].Query
			}

			t0 := time.Now()
			for _, q := range queries {
				if _, err := noReuse.Run(q); err != nil {
					return nil, err
				}
			}
			tNo += time.Since(t0)

			t0 = time.Now()
			for _, q := range queries {
				if _, err := reuse.Run(q); err != nil {
					return nil, err
				}
			}
			tReuse += time.Since(t0)

			t0 = time.Now()
			res, err := shared.Run(context.Background(), sharedOpt, queries)
			if err != nil {
				return nil, err
			}
			tShared += time.Since(t0)
			sharedPlans += len(res.Groups)
		}
		row := Exp4Row{
			BatchSize:       size,
			SingleNoReuse:   tNo,
			SingleWithReuse: tReuse,
			SharedWithReuse: tShared,
			SharedPlansAvg:  float64(sharedPlans) / float64(nBatches),
			BatchesExecuted: nBatches,
		}
		if tNo > 0 {
			row.SharedReductions = (1 - float64(tShared)/float64(tNo)) * 100
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format renders the Figure 11 series.
func (r *Exp4Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment 4 — Multi-Query Reuse / Batch Execution (SF=%.3f)\n", r.SF)
	fmt.Fprintf(&b, "  %-6s %16s %16s %16s %12s %10s\n",
		"batch", "single wo reuse", "single w reuse", "shared w reuse", "avg plans", "reduction")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-6d %16v %16v %16v %12.1f %9.1f%%\n",
			row.BatchSize,
			row.SingleNoReuse.Round(time.Millisecond),
			row.SingleWithReuse.Round(time.Millisecond),
			row.SharedWithReuse.Round(time.Millisecond),
			row.SharedPlansAvg, row.SharedReductions)
	}
	return b.String()
}

// Exp5Row is one workload level's GC overhead measurement.
type Exp5Row struct {
	Level        workload.Level
	NoGCTime     time.Duration
	GC20Time     time.Duration
	GC50Time     time.Duration
	Overhead20   float64 // % vs no GC
	Overhead50   float64
	Evictions20  int64
	PeakBytes    int64
	Budget20     int64
	Budget50     int64
	SpeedupVsNo  float64 // HashStash+GC20 speed-up over no-reuse (%)
	NoReuseTime  time.Duration
	Evictions50  int64
	Registered20 int64
}

// Exp5Result is the garbage-collection overhead study.
type Exp5Result struct {
	Rows []Exp5Row
	SF   float64
}

// Exp5 reproduces the Section 6.5 analysis: each workload runs without
// GC (unlimited cache), then with the cache capped at 20% and 50% of
// the observed peak footprint.
func Exp5(env *Env, n int) (*Exp5Result, error) {
	out := &Exp5Result{SF: env.SF}
	for _, level := range []workload.Level{workload.Low, workload.Medium, workload.High} {
		steps := workload.Generate(workload.Config{Level: level, N: n})

		noGC := env.newOptimizer(optimizer.CostModel, 0)
		tNoGC, err := runTrace(noGC.Run, steps)
		if err != nil {
			return nil, err
		}
		peak := noGC.Cache.Stats().Bytes
		if peak <= 0 {
			peak = 1 << 20
		}

		gc20 := env.newOptimizer(optimizer.CostModel, peak/5)
		t20, err := runTrace(gc20.Run, steps)
		if err != nil {
			return nil, err
		}
		gc50 := env.newOptimizer(optimizer.CostModel, peak/2)
		t50, err := runTrace(gc50.Run, steps)
		if err != nil {
			return nil, err
		}
		noReuse := env.newOptimizer(optimizer.NeverReuse, 0)
		tNo, err := runTrace(noReuse.Run, steps)
		if err != nil {
			return nil, err
		}

		row := Exp5Row{
			Level: level, NoGCTime: tNoGC, GC20Time: t20, GC50Time: t50,
			PeakBytes: peak, Budget20: peak / 5, Budget50: peak / 2,
			Evictions20:  gc20.Cache.Stats().Evictions,
			Evictions50:  gc50.Cache.Stats().Evictions,
			Registered20: gc20.Cache.Stats().Registered,
			NoReuseTime:  tNo,
		}
		row.Overhead20 = (float64(t20)/float64(tNoGC) - 1) * 100
		row.Overhead50 = (float64(t50)/float64(tNoGC) - 1) * 100
		row.SpeedupVsNo = speedupPct(tNo, t20)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format renders the Experiment 5 table.
func (r *Exp5Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment 5 — Garbage Collection Overhead (SF=%.3f)\n", r.SF)
	fmt.Fprintf(&b, "  %-10s %10s %10s %10s %12s %12s %10s %10s\n",
		"workload", "wo GC", "GC@20%", "GC@50%", "overhead20", "overhead50", "evict20", "vs no-reuse")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %10v %10v %10v %11.1f%% %11.1f%% %10d %9.1f%%\n",
			row.Level,
			row.NoGCTime.Round(time.Millisecond),
			row.GC20Time.Round(time.Millisecond),
			row.GC50Time.Round(time.Millisecond),
			row.Overhead20, row.Overhead50, row.Evictions20, row.SpeedupVsNo)
	}
	return b.String()
}

// Fig3Result holds the calibration sweep (Figures 3a-3c).
type Fig3Result struct {
	Cal *costmodel.Calibration
}

// Fig3 runs the cost-model calibration micro-benchmarks on this host.
func Fig3(opt costmodel.CalibrateOptions) (*Fig3Result, error) {
	cal, err := costmodel.Calibrate(opt)
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Cal: cal}, nil
}

// Format renders the three cost grids.
func (r *Fig3Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 3 — Reuse-aware cost parameters (ns/op on this host)\n")
	grids := []struct {
		name string
		grid [][]float64
	}{
		{"3a insert", r.Cal.Insert},
		{"3b probe", r.Cal.Probe},
		{"3c update", r.Cal.Update},
	}
	for _, g := range grids {
		fmt.Fprintf(&b, "%s:\n  %-10s", g.name, "size\\width")
		for _, w := range r.Cal.Widths {
			fmt.Fprintf(&b, "%8dB", w)
		}
		b.WriteByte('\n')
		for si, size := range r.Cal.Sizes {
			fmt.Fprintf(&b, "  %-10s", fmtBytes(size))
			for wi := range r.Cal.Widths {
				fmt.Fprintf(&b, "%9.1f", g.grid[si][wi])
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "scan model: %.2f ns + %.3f ns/byte per row\n", r.Cal.ScanBase, r.Cal.ScanPerByte)
	return b.String()
}
