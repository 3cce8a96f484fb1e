// Package shard holds no engine code: every table is stored whole, once,
// and every query runs on one catalog, one cache and one optimizer. Its
// tests keep the join queries whose columns disagree with the declared
// partition keys, and check that the deprecated sharding options —
// Tuning.Shards and WithPartitionKey, which the benchmark still passes —
// leave their answers and the cache's behaviour as they are.
package shard

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"hashstash"
	"hashstash/internal/types"
)

// exchangeDB loads three tables and, when shards > 1, declares partition
// keys that disagree with most of exchangeQueries' join columns: fa by
// k, fb by y, and fc by z (or none when fcKey is false). At shards == 0
// it passes no sharding option at all.
func exchangeDB(t *testing.T, shards int, fcKey bool, opts ...hashstash.Option) *hashstash.DB {
	t.Helper()
	if shards > 0 {
		opts = append(opts, hashstash.WithTuning(hashstash.Tuning{Shards: shards}))
		if shards > 1 {
			opts = append(opts, hashstash.WithPartitionKey("fa", "k"), hashstash.WithPartitionKey("fb", "y"))
			if fcKey {
				opts = append(opts, hashstash.WithPartitionKey("fc", "z"))
			}
		}
	}
	db := hashstash.Open(opts...)
	create := func(name string, order []string, kinds []types.Kind, rows [][]types.Value) {
		cols := map[string]types.Kind{}
		for i, c := range order {
			cols[c] = kinds[i]
		}
		if err := db.CreateTable(name, cols, order); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertRows(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	var fa, fb, fc [][]types.Value
	for i := 0; i < 600; i++ {
		fa = append(fa, []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 50)), types.NewFloat(float64(i % 97))})
	}
	for i := 0; i < 500; i++ {
		fb = append(fb, []types.Value{types.NewInt(int64(i % 300)), types.NewInt(int64(i % 80)), types.NewString(fmt.Sprintf("s%d", i%9))})
	}
	for i := 0; i < 200; i++ {
		fc = append(fc, []types.Value{types.NewInt(int64(i % 80)), types.NewInt(int64(i % 11))})
	}
	create("fa", []string{"k", "x", "v"}, []types.Kind{types.Int64, types.Int64, types.Float64}, fa)
	create("fb", []string{"k", "y", "s"}, []types.Kind{types.Int64, types.Int64, types.String}, fb)
	create("fc", []string{"y", "z"}, []types.Kind{types.Int64, types.Int64}, fc)
	return db
}

var exchangeQueries = []string{
	`SELECT a.k, b.y FROM fa a, fb b WHERE a.k = b.k AND b.y < 40`,
	`SELECT a.k, b.s FROM fa a, fb b WHERE a.x = b.y AND a.v < 50`,
	`SELECT a.k, c.z FROM fa a, fb b, fc c WHERE a.k = b.k AND b.y = c.y AND c.z >= 3`,
	`SELECT b.s, COUNT(*) AS n FROM fa a, fb b WHERE a.x = b.k GROUP BY b.s`,
	`SELECT a.k, b.s FROM fa a, fb b WHERE a.k = b.y AND a.x < 20`,
	`SELECT c.z, SUM(a.v) AS sv FROM fa a, fc c WHERE a.x = c.y AND a.k < 500 GROUP BY c.z`,
}

// forEachExchangeCase runs f over every query on databases opened with
// two, three and four shards, with fc keyed and not, against answers
// from a NeverReuse database opened without sharding options.
func forEachExchangeCase(t *testing.T, f func(t *testing.T, db *hashstash.DB, sql string, want []string)) {
	ref := exchangeDB(t, 0, false, hashstash.WithStrategy(hashstash.NeverReuse))
	want := make([][]string, len(exchangeQueries))
	for qi, sql := range exchangeQueries {
		res, err := ref.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if want[qi] = canonicalRows(res.Rows); len(want[qi]) == 0 {
			t.Fatalf("reference q%d answers no rows", qi)
		}
	}
	for _, n := range []int{2, 3, 4} {
		for _, fcKey := range []bool{false, true} {
			db := exchangeDB(t, n, fcKey)
			for qi, sql := range exchangeQueries {
				t.Run(fmt.Sprintf("shards=%d/fcKey=%v/q%d", n, fcKey, qi), func(t *testing.T) {
					f(t, db, sql, want[qi])
				})
			}
		}
	}
}

// TestNotCoPartitionedRunsWhole: a query whose joins disagree with the
// declared partition keys answers what the reference answers, counts no
// per-shard queries and, run a second time, reuses the hash tables its
// first run left in the cache.
func TestNotCoPartitionedRunsWhole(t *testing.T) {
	forEachExchangeCase(t, func(t *testing.T, db *hashstash.DB, sql string, want []string) {
		for run := 0; run < 2; run++ {
			hits := db.CacheStats().Hits
			got, err := db.Exec(sql)
			if err != nil {
				t.Fatal(err)
			}
			if rows := canonicalRows(got.Rows); !reflect.DeepEqual(rows, want) {
				t.Fatalf("run %d: %d rows, reference %d", run, len(rows), len(want))
			}
			if counts := db.ShardQueryCounts(); counts != nil {
				t.Fatalf("run %d: ShardQueryCounts() = %v, want nil", run, counts)
			}
			if run == 1 && db.CacheStats().Hits == hits {
				t.Error("the second run hit no cached hash table")
			}
		}
	})
}

// TestScatterDropsTemps runs the queries end to end: answers match the
// reference, and no query leaves a temporary behind. After each query
// the database lists exactly the tables it listed before, no cached
// artifact was evicted — the run leaves its hash tables cached — and no
// cache entry stays pinned.
func TestScatterDropsTemps(t *testing.T) {
	forEachExchangeCase(t, func(t *testing.T, db *hashstash.DB, sql string, want []string) {
		names := db.Tables()
		before := db.CacheStats()
		got, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if rows := canonicalRows(got.Rows); !reflect.DeepEqual(rows, want) {
			t.Fatalf("%d rows, reference %d", len(rows), len(want))
		}
		after := db.CacheStats()
		if after.Evictions != before.Evictions {
			t.Errorf("the query evicted %d cached artifacts", after.Evictions-before.Evictions)
		}
		if after.Entries == 0 {
			t.Error("the query left no hash table cached")
		}
		if after.Pinned != 0 {
			t.Errorf("%d cache entries pinned after the query", after.Pinned)
		}
		if got := db.Tables(); !slices.Equal(got, names) {
			t.Errorf("the database lists %v after the query, %v before", got, names)
		}
	})
}

// canonicalRows renders result rows order-independently; float sums
// are rounded, since a NeverReuse plan may add in another order.
func canonicalRows(rows [][]types.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		for _, v := range row {
			if v.Kind == types.Float64 {
				out[i] += fmt.Sprintf("%.6f|", v.F)
				continue
			}
			out[i] += v.String() + "|"
		}
	}
	sort.Strings(out)
	return out
}
