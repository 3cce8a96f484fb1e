package hashstash

import (
	"fmt"
	"testing"

	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// BenchmarkPartitionKernel measures the vectorized hash-partition split
// that every partitioned table load runs through. Steady state must be
// 0 allocs/op: the partitioner reuses its histogram, destination and
// permutation scratch across calls.
func BenchmarkPartitionKernel(b *testing.B) {
	const rows = 256 * 1024
	col := storage.NewColumn("k", types.Int64)
	for i := 0; i < rows; i++ {
		col.Append(types.NewInt(int64(i) * 2654435761))
	}
	for _, shards := range []int{4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p := storage.NewPartitioner(shards)
			p.Partition(col, -1) // warm scratch outside the timer
			b.SetBytes(8 * rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Partition(col, -1)
			}
		})
	}
}

// benchShardedDB opens a TPC-H database at the given shard count with
// the standard test placement (customer/orders co-partitioned on the
// customer key, lineitem on its own order key).
func benchShardedDB(b *testing.B, shards, workers int) *DB {
	b.Helper()
	opts := []Option{WithTuning(Tuning{Parallelism: workers, MorselRows: 16 * 1024})}
	if shards > 1 {
		opts = append(opts,
			WithTuning(Tuning{Shards: shards}),
			WithPartitionKey("customer", "c_custkey"),
			WithPartitionKey("orders", "o_custkey"),
			WithPartitionKey("lineitem", "l_orderkey"))
	}
	db := Open(opts...)
	if err := db.LoadTPCH(0.02); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkShardedScanAgg times a full-scan aggregation (Q1 shape) as
// it scatters across shard-local caches and merges partial aggregates,
// against the unsharded engine on the same worker budget. The cache is
// cleared every iteration so the build pipelines run each time.
func BenchmarkShardedScanAgg(b *testing.B) {
	const sql = `
		SELECT l.l_returnflag, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue,
		       COUNT(*) AS n, AVG(l.l_quantity) AS avg_qty
		FROM lineitem l
		GROUP BY l.l_returnflag`
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db := benchShardedDB(b, shards, 4)
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
		})
	}
}

// BenchmarkCoPartitionedJoin times the co-partitioned CUSTOMER ⋈ ORDERS
// aggregation: each shard probes only its own fragments (no exchange),
// and the gather merges the group partials.
func BenchmarkCoPartitionedJoin(b *testing.B) {
	const sql = `
		SELECT c.c_age, SUM(o.o_totalprice) AS spend
		FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey
		GROUP BY c.c_age`
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db := benchShardedDB(b, shards, 4)
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
		})
	}
}

// BenchmarkShardedPointRoute times the routed path end to end: a
// partition-key point query planned and executed on exactly one shard,
// reusing that shard's cached artifacts across iterations.
func BenchmarkShardedPointRoute(b *testing.B) {
	db := benchShardedDB(b, 4, 4)
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
