// Command hashstash is a small interactive shell over a HashStash
// database: it loads a TPC-H instance, executes SQL from stdin (one
// statement per line) and reports per-query reuse decisions and cache
// state.
//
//	$ hashstash -sf 0.01
//	hashstash> SELECT c.c_age, SUM(l.l_extendedprice) AS revenue
//	           FROM customer c, orders o, lineitem l
//	           WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
//	             AND l.l_shipdate >= DATE '1995-03-15' GROUP BY c.c_age
//
// Meta commands: \cache (cache statistics), \tables, \q.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hashstash"
)

func main() {
	var (
		sf       = flag.Float64("sf", 0.01, "TPC-H scale factor")
		budget   = flag.Int64("cache", 0, "hash table cache budget in bytes (0 = unlimited)")
		cold     = flag.Int64("cold", 0, "cold-tier budget in bytes for compact demoted artifacts (0 = disabled)")
		lru      = flag.Bool("lru", false, "use LRU eviction instead of benefit-per-byte (ablation)")
		maxRow   = flag.Int("rows", 20, "maximum result rows to print")
		parallel = flag.Int("parallel", 0, "execution worker-pool size (0 = all CPUs, 1 = serial)")
	)
	flag.Parse()

	db := hashstash.Open(
		hashstash.WithTuning(hashstash.Tuning{
			CacheBudget:    *budget,
			ColdTierBudget: *cold,
			Parallelism:    *parallel,
		}),
		hashstash.WithAblations(hashstash.Ablations{LRUEviction: *lru}))
	fmt.Printf("loading TPC-H SF=%.3f... ", *sf)
	start := time.Now()
	if err := db.LoadTPCH(*sf); err != nil {
		fmt.Fprintln(os.Stderr, "load:", err)
		os.Exit(1)
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Println(`type SQL (single line), \cache, \tables or \q`)

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("hashstash> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			continue
		case line == `\q`:
			return
		case line == `\tables`:
			fmt.Println(strings.Join(db.Tables(), ", "))
			continue
		case line == `\cache`:
			s := db.CacheStats()
			fmt.Printf("entries=%d bytes=%d hits=%d evictions=%d hit-ratio=%.2f\n",
				s.Entries, s.Bytes, s.Hits, s.Evictions, s.HitRatio)
			tr := s.Tiering
			fmt.Printf("tiering: demotions=%d spills=%d revivals=%d cold=%d/%dB "+
				"bloom=%d/%d/%dFP evict[benefit=%d lru=%d cold=%d] saved=%.1fms\n",
				tr.Demotions, tr.Spills, tr.Revivals, tr.ColdEntries, tr.ColdBytes,
				tr.BloomProbes, tr.BloomNegatives, tr.BloomFalsePositives,
				tr.BenefitEvictions, tr.LRUEvictions, tr.ColdEvictions, tr.SavedNS/1e6)
			continue
		}
		res, err := db.Exec(line)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Println(strings.Join(res.Columns, " | "))
		for i, row := range res.Rows {
			if i >= *maxRow {
				fmt.Printf("... (%d rows total)\n", len(res.Rows))
				break
			}
			parts := make([]string, len(row))
			for j, v := range row {
				parts[j] = v.String()
			}
			fmt.Println(strings.Join(parts, " | "))
		}
		var decisions []string
		for _, d := range res.Decisions {
			decisions = append(decisions, fmt.Sprintf("%s:%c(%s)", d.Operator, d.Action, d.Mode))
		}
		fmt.Printf("%d rows, plan %v + exec %v (%d rows in / %d out); reuse: %s\n",
			len(res.Rows), res.PlanTime.Round(time.Microsecond), res.ExecTime.Round(time.Microsecond),
			res.RowsIn, res.RowsOut, strings.Join(decisions, " "))
	}
}
