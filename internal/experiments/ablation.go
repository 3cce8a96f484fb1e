package experiments

import (
	"fmt"
	"strings"
	"time"

	"hashstash/internal/htcache"
	"hashstash/internal/optimizer"
	"hashstash/internal/workload"
)

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Name     string
	Time     time.Duration
	HitRatio float64
	// Speedup is relative to the no-reuse baseline (%).
	Speedup float64
}

// AblationResult quantifies the paper's Section 3.4 design choices on
// the high-reuse workload: how much of HashStash's win comes from the
// partial/overlapping reuse cases (prior work supports only
// exact+subsuming) and from the benefit-oriented optimizations
// (AVG rewrite is always applied; this knob covers additional payload
// attributes and the join-order tie-break).
type AblationResult struct {
	Rows []AblationRow
	SF   float64
	N    int
}

// Ablation runs the high-reuse workload under four optimizer
// configurations sharing the same data. Secondary indexes are disabled
// in every configuration so the table isolates the hash-table reuse
// design choices: a lazy index build landing in one trace but not
// another would skew the comparison with an orthogonal subsystem's
// investment (indexes have their own benchmark, BenchmarkIndexRange).
func Ablation(env *Env, n int) (*AblationResult, error) {
	steps := workload.Generate(workload.Config{Level: workload.High, N: n})
	configs := []struct {
		name string
		opts optimizer.Options
	}{
		{"no-reuse (baseline)", optimizer.Options{Strategy: optimizer.NeverReuse, NoPartialReuse: true, NoOverlappingReuse: true, NoSecondaryIndexes: true}},
		{"exact+subsuming only", optimizer.Options{NoPartialReuse: true, NoOverlappingReuse: true, NoSecondaryIndexes: true}},
		{"no benefit-oriented opts", optimizer.Options{NoBenefitOptimizations: true, NoSecondaryIndexes: true}},
		{"full HashStash", optimizer.Options{NoSecondaryIndexes: true}},
	}
	out := &AblationResult{SF: env.SF, N: n}
	var baseline time.Duration
	var workingSet int64
	for i, cfg := range configs {
		opt := optimizer.New(env.Cat, htcache.New(0), nil, cfg.opts)
		t, err := runTrace(opt.Run, steps)
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", cfg.name, err)
		}
		row := AblationRow{Name: cfg.name, Time: t, HitRatio: opt.Cache.Stats().HitRatio}
		if i == 0 {
			baseline = t
		}
		if i == len(configs)-1 {
			workingSet = opt.Cache.TotalBytes()
		}
		row.Speedup = speedupPct(baseline, t)
		out.Rows = append(out.Rows, row)
	}

	// Eviction-policy rows: the full configuration again, but with the
	// cache budget at half the trace's working set so the policy has to
	// choose victims. The benefit row keeps the default policy plus a
	// cold tier; the LRU row is the recency ablation.
	full := configs[len(configs)-1].opts
	for _, pc := range []struct {
		name string
		lru  bool
	}{
		{"benefit eviction, ½ budget", false},
		{"LRU eviction, ½ budget", true},
	} {
		cache := htcache.New(workingSet / 2)
		if pc.lru {
			cache.SetPolicy(htcache.PolicyLRU)
		} else {
			cache.SetColdBudget(workingSet * 2)
		}
		opt := optimizer.New(env.Cat, cache, nil, full)
		t, err := runTrace(opt.Run, steps)
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", pc.name, err)
		}
		out.Rows = append(out.Rows, AblationRow{
			Name: pc.name, Time: t,
			HitRatio: cache.Stats().HitRatio,
			Speedup:  speedupPct(baseline, t),
		})
	}
	return out, nil
}

// Format renders the ablation table.
func (r *AblationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — Section 3.4 design choices (high-reuse workload, SF=%.3f, %d queries)\n", r.SF, r.N)
	fmt.Fprintf(&b, "  %-28s %12s %10s %10s\n", "configuration", "time", "hit ratio", "speed-up")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-28s %12v %10.2f %9.1f%%\n",
			row.Name, row.Time.Round(time.Millisecond), row.HitRatio, row.Speedup)
	}
	return b.String()
}
