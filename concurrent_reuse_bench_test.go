package hashstash

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// Concurrent-reuse benchmarks: a widening-vs-read-only query mix over
// one shared cache, exercising the snapshot lifecycle (snapshot
// resolution, widening by copy, CAS publication, reclamation by the
// garbage collector) end to end. On the 1-CPU CI runner this measures
// contention overhead rather than speedup — the gate is that the mix
// stays race-clean and allocation-stable, tracked via BENCH_reuse.json.

func benchReuseDB(b *testing.B) *DB {
	b.Helper()
	db := Open(WithTuning(Tuning{Parallelism: 1}), WithStrategy(AlwaysReuse))
	if err := db.LoadTPCH(0.005); err != nil {
		b.Fatal(err)
	}
	return db
}

func benchWideningMix() []string {
	var qs []string
	// Alternating widening (earlier bounds) and read-only (later
	// bounds, subsumed by the seed) against one join structure.
	for _, d := range []string{"1996-01-01", "1997-06-01", "1995-01-01", "1998-01-01", "1994-01-01", "1997-01-01"} {
		qs = append(qs, fmt.Sprintf(`
			SELECT c.c_age, SUM(l.l_extendedprice) AS revenue
			FROM customer c, orders o, lineitem l
			WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
			  AND l.l_shipdate >= DATE '%s'
			GROUP BY c.c_age`, d))
	}
	return qs
}

// BenchmarkConcurrentReuse runs the widening/read-only mix from
// b.RunParallel workers over one shared cache: every iteration is one
// query, drawing from the mix round-robin.
func BenchmarkConcurrentReuse(b *testing.B) {
	db := benchReuseDB(b)
	qs := benchWideningMix()
	// Seed so the very first iterations already reuse.
	if _, err := db.Exec(qs[0]); err != nil {
		b.Fatal(err)
	}
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := qs[int(seq.Add(1))%len(qs)]
			if _, err := db.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if s := db.CacheStats(); s.Hits == 0 {
		b.Fatal("benchmark never reused a cached table")
	}
}

// BenchmarkWidenPublish isolates the snapshot lifecycle: each iteration
// widens the current snapshot of one cached entry by one residual slice
// and publishes it (plan + table copy + build + CAS), alternating with a
// read-only exact-reuse probe of the published version.
func BenchmarkWidenPublish(b *testing.B) {
	db := benchReuseDB(b)
	qs := benchWideningMix()
	if _, err := db.Exec(qs[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}
