package hashstash

// End-to-end evaluation of the tiered cache: benefit-per-byte eviction
// versus the LRU ablation on a Zipf-skewed workload at half the working
// set, plus microbenchmarks for the cold-tier mechanics (spill revival
// latency, bloom membership probes, post-revival probe cost). CI pipes
// BenchmarkCacheTiering through cmd/benchjson against BENCH_cache.json.

import (
	"context"
	"testing"

	"hashstash/internal/btree"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/htcache"
	"hashstash/internal/storage"
	"hashstash/internal/types"
	"hashstash/internal/workload"
)

// tieringSF is the TPC-H scale the tiering trace runs at: large enough
// that rebuilding an evicted artifact costs visibly more than reviving
// a compact spill.
const tieringSF = 0.01

// tieringWorkload is the shared Zipf-skewed trace: a heavy head of
// recurring shapes plus ~30% one-shot pollution, which is exactly the
// mix where recency ranking (LRU) keeps the wrong artifacts.
func tieringWorkload() []workload.Step {
	return workload.GenerateSkewed(workload.SkewConfig{
		N: 120, Shapes: 8, S: 1.1, OneShotFrac: 0.3, Seed: 42,
	})
}

// runSteps replays the trace and returns the summed optimizer cost
// estimate (ns) of the chosen plans. Both policies face the same trace,
// so a lower total modeled cost means more total reuse savings against
// the shared fresh-build baseline — the comparison nets out rebuild
// work, which a per-hit savings counter alone would not (a policy that
// evicts and rebuilds constantly re-earns full exact-hit credit while
// silently re-paying every build).
func runSteps(tb testing.TB, db *DB, steps []workload.Step) float64 {
	tb.Helper()
	total := 0.0
	for _, st := range steps {
		res, err := db.ExecParsed(context.Background(), st.Query)
		if err != nil {
			tb.Fatal(err)
		}
		total += res.EstimatedCost
	}
	return total
}

// tieringWorkingSet replays the trace unbudgeted and reports the bytes
// the cache holds at the end — the trace's full working set.
func tieringWorkingSet(tb testing.TB, steps []workload.Step) int64 {
	tb.Helper()
	db := Open()
	if err := db.LoadTPCH(tieringSF); err != nil {
		tb.Fatal(err)
	}
	runSteps(tb, db, steps)
	ws := db.CacheStats().Bytes
	if ws == 0 {
		tb.Fatal("sizing run cached nothing")
	}
	return ws
}

// TestBenefitBeatsLRU is the policy acceptance test: with the budget at
// half the working set, benefit-per-byte eviction (plus the cold tier)
// must end the skewed trace at no more total modeled cost than the LRU
// ablation — i.e. at least as much total reuse savings against the
// shared fresh-build baseline.
func TestBenefitBeatsLRU(t *testing.T) {
	steps := tieringWorkload()
	budget := tieringWorkingSet(t, steps) / 2

	open := func(opts ...Option) *DB {
		db := Open(opts...)
		if err := db.LoadTPCH(tieringSF); err != nil {
			t.Fatal(err)
		}
		return db
	}
	benefit := open(WithTuning(Tuning{CacheBudget: budget, ColdTierBudget: budget * 4}))
	benefitCost := runSteps(t, benefit, steps)
	lru := open(WithTuning(Tuning{CacheBudget: budget}), WithAblations(Ablations{LRUEviction: true}))
	lruCost := runSteps(t, lru, steps)

	bs, ls := benefit.CacheStats(), lru.CacheStats()
	t.Logf("benefit: trace cost=%.3e saved=%.0f hits=%d reg=%d demotions=%d revivals=%d bloomFP=%d/%d",
		benefitCost, bs.Tiering.SavedNS, bs.Hits, bs.Registered, bs.Tiering.Demotions,
		bs.Tiering.Revivals, bs.Tiering.BloomFalsePositives, bs.Tiering.BloomProbes)
	t.Logf("lru:     trace cost=%.3e saved=%.0f hits=%d reg=%d evictions=%d",
		lruCost, ls.Tiering.SavedNS, ls.Hits, ls.Registered, ls.Tiering.LRUEvictions)
	if ls.Tiering.LRUEvictions == 0 {
		t.Fatal("budget never bound under LRU: trace does not exceed the budget")
	}
	if bs.Tiering.Demotions+bs.Tiering.BenefitEvictions == 0 {
		t.Fatal("budget never bound under benefit policy")
	}
	if benefitCost > lruCost {
		t.Fatalf("benefit policy's trace cost %.3e exceeds LRU's %.3e: less total reuse savings", benefitCost, lruCost)
	}
}

// benchHT builds an orders-shaped single-key build table with the given
// row count, mirroring the htcache test fixtures.
func benchHT(rows int) *hashtable.Table {
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "orders", Column: "o_custkey"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "orders", Column: "o_orderdate"}, Kind: types.Date},
		},
		KeyCols: 1,
	}
	ht := hashtable.New(layout)
	for i := 0; i < rows; i++ {
		ht.Insert([]uint64{uint64(i), uint64(i * 10)})
	}
	return ht
}

func benchLin() htcache.Lineage {
	return htcache.Lineage{
		Kind:    htcache.JoinBuild,
		Tables:  []string{"orders"},
		JoinSig: "orders|",
		Filter: expr.NewBox(expr.Pred{
			Col: storage.ColRef{Table: "orders", Column: "o_orderdate"},
			Con: expr.IntervalConstraint(types.Date, expr.Interval{
				HasLo: true, Lo: types.NewDate(100), LoIncl: true,
			}),
		}),
		KeyCols: []storage.ColRef{{Table: "orders", Column: "o_custkey"}},
		QidCol:  -1,
	}
}

// BenchmarkCacheTiering covers the tiering hot paths:
//
//   - policy=benefit / policy=lru: the skewed trace end to end at half
//     the working set; hit-ratio and saved-Mcost metrics compare the
//     two eviction policies.
//   - revive=hashtable / revive=btree: full demote→spill→revive cycle
//     latency for both artifact kinds.
//   - bloom=probe: a cold index's membership test; must stay 0
//     allocs/op.
//   - hotprobe=restored: steady-state probe against a revived table;
//     must stay 0 allocs/op (revival cannot degrade the probe path).
func BenchmarkCacheTiering(b *testing.B) {
	steps := tieringWorkload()
	budget := tieringWorkingSet(b, steps) / 2

	for _, cfg := range []struct {
		name string
		opts []Option
	}{
		{"policy=benefit", []Option{WithTuning(Tuning{CacheBudget: budget, ColdTierBudget: budget * 4})}},
		{"policy=lru", []Option{WithTuning(Tuning{CacheBudget: budget}), WithAblations(Ablations{LRUEviction: true})}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var last CacheStats
			var cost float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := Open(cfg.opts...)
				if err := db.LoadTPCH(tieringSF); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				cost = runSteps(b, db, steps)
				last = db.CacheStats()
			}
			b.ReportMetric(last.HitRatio, "hit-ratio")
			b.ReportMetric(cost/1e6, "trace-Mcost")
			b.ReportMetric(last.Tiering.SavedNS/1e6, "saved-Mcost")
			if last.Tiering.BloomProbes > 0 {
				b.ReportMetric(float64(last.Tiering.BloomFalsePositives)/float64(last.Tiering.BloomProbes), "bloom-fp-rate")
			}
		})
	}

	b.Run("revive=hashtable", func(b *testing.B) {
		c := htcache.New(0)
		c.SetColdBudget(1 << 30)
		e := c.Register(benchHT(1<<14), benchLin())
		c.Release(e)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.SetBudget(1) // demote + spill (no readers: immediate)
			c.SetBudget(0)
			if snap := c.Revive(e, nil); snap == nil || snap.HT == nil {
				b.Fatal("hash-table revival failed")
			}
		}
	})

	b.Run("revive=btree", func(b *testing.B) {
		col := storage.NewColumn("o_orderdate", types.Int64)
		for i := 0; i < 1<<14; i++ {
			col.Append(types.NewInt(int64(i*2654435761) % 100000))
		}
		tree, err := btree.Build(col)
		if err != nil {
			b.Fatal(err)
		}
		c := htcache.New(0)
		c.SetColdBudget(1 << 30)
		e := c.RegisterIndex(tree, storage.ColRef{Table: "orders", Column: "o_orderdate"})
		c.Release(e)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.SetBudget(1)
			c.SetBudget(0)
			if snap := c.Revive(e, col); snap == nil || snap.Idx == nil {
				b.Fatal("index revival failed")
			}
		}
	})

	b.Run("bloom=probe", func(b *testing.B) {
		col := storage.NewColumn("o_custkey", types.Int64)
		for i := 0; i < 1<<14; i++ {
			col.Append(types.NewInt(int64(i)))
		}
		tree, err := btree.Build(col)
		if err != nil {
			b.Fatal(err)
		}
		ref := storage.ColRef{Table: "orders", Column: "o_custkey"}
		c := htcache.New(0)
		c.SetColdBudget(1 << 30)
		e := c.RegisterIndex(tree, ref)
		c.Release(e)
		c.SetBudget(1) // demote + spill
		ca := c.ColdCandidate(htcache.IndexLineage(ref))
		if ca == nil {
			b.Fatal("no cold candidate after demotion")
		}
		b.ReportAllocs()
		b.ResetTimer()
		absent, fp := 0, 0
		for i := 0; i < b.N; i++ {
			k := int64(i & 0xffff)
			hit := ca.MayContain(htcache.StableValueHash(types.NewInt(k)))
			if k >= 1<<14 { // not inserted: any pass is a false positive
				absent++
				if hit {
					fp++
				}
			}
		}
		if absent > 0 {
			b.ReportMetric(float64(fp)/float64(absent), "bloom-fp-rate")
		}
	})

	b.Run("hotprobe=restored", func(b *testing.B) {
		const n = 1 << 14
		restored := benchHT(n).Spill().Restore()
		key := []uint64{0}
		var sink int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key[0] = uint64(i % n)
			it := restored.Probe(key)
			for e := it.Next(); e != -1; e = it.Next() {
				sink += int64(e)
			}
		}
		_ = sink
	})
}
