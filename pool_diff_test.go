package hashstash

import (
	"runtime"
	"sync"
	"testing"
)

// poolQueries alternate output schemas over every column kind: int,
// float, date and string columns, collected deferred (scan columns read
// at row ids) and eager (computed, aggregated, or emitted by a probe
// from a hash table), from point lookups to probes that fan out past
// one batch. Consecutive queries thus lay pooled batch shells out for
// different schemas.
var poolQueries = []string{
	`SELECT l.l_orderkey, l.l_returnflag, l.l_shipdate, l.l_extendedprice FROM lineitem l WHERE l.l_quantity <= 3`,
	`SELECT o.o_orderstatus, COUNT(*) AS n, SUM(o.o_totalprice) AS s FROM orders o GROUP BY o.o_orderstatus`,
	`SELECT c.c_name, c.c_mktsegment, o.o_orderdate, o.o_totalprice FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_totalprice >= 200000`,
	`SELECT l.l_returnflag, SUM(l.l_extendedprice * (1 - l.l_discount)) AS rev, MAX(l.l_quantity) AS q
		FROM lineitem l WHERE l.l_shipdate >= DATE '1995-01-01' GROUP BY l.l_returnflag`,
	`SELECT c.c_name, c.c_acctbal, c.c_age FROM customer c WHERE c.c_custkey = 7`,
	q3SQL,
	`SELECT o.o_orderstatus, c.c_mktsegment, COUNT(*) AS n FROM orders o, customer c, lineitem l
		WHERE o.o_custkey = c.c_custkey AND o.o_orderkey = l.l_orderkey AND c.c_age < 40
		GROUP BY o.o_orderstatus, c.c_mktsegment`,
	`SELECT o.o_orderkey, o.o_orderdate, l.l_shipdate, l.l_returnflag FROM orders o, lineitem l
		WHERE o.o_orderkey = l.l_orderkey AND o.o_custkey <= 40`,
	`SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l WHERE l.l_shipdate >= DATE '1995-03-01'
		ORDER BY l.l_extendedprice DESC LIMIT 5`,
}

// TestPooledBatchDifferential runs poolQueries three times round on
// engines that reuse pooled batch shells across queries — at one
// worker and at GOMAXPROCS over small morsels, both at once so pooled
// shells also pass between goroutines — and checks every answer
// against a NeverReuse single-worker engine's.
func TestPooledBatchDifferential(t *testing.T) {
	ref := openTPCH(t, WithStrategy(NeverReuse), WithTuning(Tuning{Parallelism: 1}))
	want := make([]diffAnswer, len(poolQueries))
	for i, sql := range poolQueries {
		res, err := ref.Exec(sql)
		if err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
		want[i] = normalize(res)
	}
	tunings := map[string]Tuning{
		"workers=1":          {Parallelism: 1},
		"workers=GOMAXPROCS": {Parallelism: runtime.GOMAXPROCS(0), MorselRows: 512},
	}
	var wg sync.WaitGroup
	for name, tuning := range tunings {
		db := openTPCH(t, WithTuning(tuning))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, sql := range poolQueries {
					res, err := db.Exec(sql)
					if err != nil {
						t.Errorf("%s round %d query %d: %v", name, round, i, err)
						return
					}
					if err := sameAnswer(want[i], normalize(res)); err != nil {
						t.Errorf("%s round %d query %d: %v", name, round, i, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
