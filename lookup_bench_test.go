package hashstash

import (
	"fmt"
	"testing"
)

// benchTPCH opens a TPC-H database at SF 0.02 on the given worker count.
func benchTPCH(b *testing.B, workers int) *DB {
	b.Helper()
	db := Open(WithTuning(Tuning{Parallelism: workers, MorselRows: 16 * 1024}))
	if err := db.LoadTPCH(0.02); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkShardedScanAgg times a full-scan aggregation (Q1 shape) over
// the whole lineitem table. The cache is cleared every iteration so the
// build pipelines run each time.
func BenchmarkShardedScanAgg(b *testing.B) {
	benchCold(b, `
		SELECT l.l_returnflag, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue,
		       COUNT(*) AS n, AVG(l.l_quantity) AS avg_qty
		FROM lineitem l
		GROUP BY l.l_returnflag`)
}

// BenchmarkCoPartitionedJoin times the CUSTOMER ⋈ ORDERS aggregation on
// the customer key, cold every iteration.
func BenchmarkCoPartitionedJoin(b *testing.B) {
	benchCold(b, `
		SELECT c.c_age, SUM(o.o_totalprice) AS spend
		FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey
		GROUP BY c.c_age`)
}

// benchCold times sql on four workers with the cache cleared before
// every iteration.
func benchCold(b *testing.B, sql string) {
	db := benchTPCH(b, 4)
	if _, err := db.Exec(sql); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db.ClearCache()
		b.StartTimer()
		if _, err := db.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointLookup times a customer-key point query end to end,
// cycling over 64 keys so that plans reuse the cached artifacts (and,
// once the optimizer has built it, the o_custkey index) across
// iterations. It runs as hashstashd does on two CPUs: two workers at
// the default morsels, so the spread floor keeps the lookup's short
// pipelines on the calling goroutine.
func BenchmarkPointLookup(b *testing.B) {
	db := Open(WithTuning(Tuning{Parallelism: 2}))
	if err := db.LoadTPCH(0.02); err != nil {
		b.Fatal(err)
	}
	mk := func(key int) string {
		return fmt.Sprintf(`SELECT c.c_age, SUM(o.o_totalprice) AS spend
			FROM customer c, orders o
			WHERE c.c_custkey = o.o_custkey AND c.c_custkey = %d
			GROUP BY c.c_age`, key)
	}
	if _, err := db.Exec(mk(1)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(mk(1 + i%64)); err != nil {
			b.Fatal(err)
		}
	}
}
