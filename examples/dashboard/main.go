// Dashboard demonstrates the query-batch interface (Section 4 of the
// paper): several widgets of an analytical dashboard refresh at once,
// and HashStash merges their queries into shared reuse-aware plans —
// one scan evaluates every widget's predicates, tagged tuples flow
// through shared joins, and each widget's aggregate is computed from a
// shared grouping table.
package main

import (
	"fmt"
	"log"
	"time"

	"hashstash"
)

func main() {
	// The cold tier is enabled up front so that when the budget tightens
	// at the end of the demo, cold artifacts spill compactly instead of
	// being dropped outright.
	db := hashstash.Open(hashstash.WithTuning(hashstash.Tuning{ColdTierBudget: 64 << 20}))
	if err := db.LoadTPCH(0.01); err != nil {
		log.Fatal(err)
	}

	widget := func(lo, hi string) string {
		return fmt.Sprintf(`
			SELECT c.c_age, SUM(l.l_extendedprice) AS revenue, COUNT(*) AS n
			FROM customer c, orders o, lineitem l
			WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
			  AND l.l_shipdate >= DATE '%s' AND l.l_shipdate < DATE '%s'
			GROUP BY c.c_age`, lo, hi)
	}
	batch := []string{
		widget("1995-01-01", "1995-04-01"), // Q1: first quarter
		widget("1995-02-01", "1995-05-01"), // Q2: sliding window
		widget("1995-03-01", "1995-06-01"), // Q3: sliding window
		widget("1995-01-01", "1995-07-01"), // Q4: half year
	}

	start := time.Now()
	results, err := db.ExecBatch(batch)
	if err != nil {
		log.Fatal(err)
	}
	batchTime := time.Since(start)
	fmt.Printf("shared batch: %d queries in %v\n", len(results), batchTime.Round(time.Microsecond))
	for i, r := range results {
		fmt.Printf("  widget %d: %d groups\n", i+1, len(r.Rows))
	}

	// The same four widgets refreshed one at a time, without sharing.
	solo := hashstash.Open(hashstash.WithStrategy(hashstash.NeverReuse))
	if err := solo.LoadTPCH(0.01); err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	for _, sql := range batch {
		if _, err := solo.Exec(sql); err != nil {
			log.Fatal(err)
		}
	}
	soloTime := time.Since(start)
	fmt.Printf("one-at-a-time without reuse: %v (%.1fx the shared batch)\n",
		soloTime.Round(time.Microsecond), float64(soloTime)/float64(batchTime))

	// A drill-down widget: a narrow range predicate refreshed on every
	// dashboard tick. After enough refreshes the optimizer's ski-rental
	// accounting pays for an ordered secondary index on l_shipdate; from
	// then on the widget reads only the matching rows through the cached
	// index, and the top-k variant walks it in order without sorting.
	detail := `
		SELECT l.l_orderkey, l.l_extendedprice
		FROM lineitem l
		WHERE l.l_shipdate >= DATE '1995-03-01' AND l.l_shipdate < DATE '1995-03-08'`
	start = time.Now()
	var refreshes int
	for refreshes = 1; refreshes <= 64; refreshes++ {
		if _, err := db.Exec(detail); err != nil {
			log.Fatal(err)
		}
		if db.CacheStats().Index.Builds > 0 {
			break
		}
	}
	warmTime := time.Since(start)

	start = time.Now()
	res, err := db.Exec(detail + ` ORDER BY l.l_extendedprice DESC LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}
	idx := db.CacheStats().Index
	fmt.Printf("range widget: index built after %d refreshes (%v); top-5 via index order in %v\n",
		refreshes, warmTime.Round(time.Microsecond), time.Since(start).Round(time.Microsecond))
	fmt.Printf("  top prices:")
	for _, row := range res.Rows {
		fmt.Printf(" %s", row[1])
	}
	fmt.Printf("\n  index stats: builds=%d probes=%d rows=%d\n",
		idx.Builds, idx.RangeProbes, idx.RowsGathered)

	// Memory pressure: squeeze the cache to half of what the dashboard
	// accumulated. The benefit-per-byte policy demotes the lowest
	// benefit-density artifacts into compact cold-tier spills; the next
	// refresh revives the ones still worth their bytes (per-artifact
	// bloom filters veto revivals that provably cannot serve the probe).
	ws := db.CacheStats().Bytes
	db.SetCacheBudget(ws / 2)
	if _, err := db.ExecBatch(batch); err != nil {
		log.Fatal(err)
	}
	tier := db.CacheStats().Tiering
	fmt.Printf("refresh under memory pressure (budget %d of %d KiB):\n", ws/2>>10, ws>>10)
	fmt.Printf("  tiering: demotions=%d spills=%d revivals=%d cold=%d entries / %d KiB\n",
		tier.Demotions, tier.Spills, tier.Revivals, tier.ColdEntries, tier.ColdBytes>>10)
	fmt.Printf("  bloom: probes=%d negatives=%d false-positives=%d\n",
		tier.BloomProbes, tier.BloomNegatives, tier.BloomFalsePositives)
	fmt.Printf("  evictions: benefit=%d lru=%d cold=%d; modeled reuse savings %.1f ms\n",
		tier.BenefitEvictions, tier.LRUEvictions, tier.ColdEvictions, tier.SavedNS/1e6)
}
