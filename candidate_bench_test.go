package hashstash

import (
	"fmt"
	"testing"

	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/htcache"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// candidateCache builds a cache of n published aggregate tables in one
// structural bucket, each pinned to its own customer key — the registry
// the sharded workload's point lookups grow — and returns it with the
// probe lineage of that bucket.
func candidateCache(n int) (*htcache.Cache, htcache.Lineage) {
	custkey := storage.ColRef{Table: "customer", Column: "c_custkey"}
	groupBy := []storage.ColRef{
		{Table: "customer", Column: "c_age"},
		{Table: "customer", Column: "c_mktsegment"},
	}
	lin := htcache.Lineage{
		Kind:    htcache.Aggregate,
		Tables:  []string{"customer", "orders"},
		JoinSig: "customer|orders|customer.c_custkey=orders.o_custkey",
		KeyCols: groupBy,
		GroupBy: groupBy,
		QidCol:  -1,
	}
	c := htcache.New(0)
	for k := 0; k < n; k++ {
		ht := hashtable.New(hashtable.Layout{
			Cols:    []storage.ColMeta{{Ref: groupBy[0], Kind: types.Int64}},
			KeyCols: 1,
		})
		ht.Insert([]uint64{uint64(k % 50)})
		l := lin
		l.Filter = expr.NewBox(expr.Pred{Col: custkey,
			Con: expr.IntervalConstraint(types.Int64, expr.PointInterval(types.NewInt(int64(k))))})
		c.Release(c.Register(ht, l))
	}
	return c, lin
}

// BenchmarkCandidateLookup is one reuse-candidate lookup against 100,
// 1,000 and 10,000 cached point-lookup tables: a point request (one
// candidate; ns/op should not grow with the cache), a wide request
// (every tenth key: one candidate per ten entries), the roll-up lookup
// a coarser group-by makes over the same bucket, and a request of
// another shape — needing c_mktsegment stored, which the point tables
// lack — that the shape rule answers with no candidate without visiting
// any entry (ns/op flat across sizes).
func BenchmarkCandidateLookup(b *testing.B) {
	custkey := storage.ColRef{Table: "customer", Column: "c_custkey"}
	keys := func(lo, hi int64) expr.Box {
		return expr.NewBox(expr.Pred{Col: custkey, Con: expr.IntervalConstraint(types.Int64, expr.Interval{
			HasLo: true, Lo: types.NewInt(lo), LoIncl: true, HasHi: true, Hi: types.NewInt(hi), HiIncl: true,
		})})
	}
	for _, n := range []int{100, 1000, 10000} {
		c, lin := candidateCache(n)
		point := lin
		point.Filter = keys(int64(n/2), int64(n/2))
		wide := lin
		wide.Filter = keys(0, int64(n/10-1))
		rollup := point
		rollup.GroupBy = lin.GroupBy[:1]
		rollup.KeyCols = rollup.GroupBy
		segment := lin.GroupBy[1:]
		for _, tc := range []struct {
			name   string
			lookup func() []*htcache.Entry
			want   int
		}{
			{"point", func() []*htcache.Entry { return c.Candidates(point, nil) }, 1},
			{"wide", func() []*htcache.Entry { return c.Candidates(wide, nil) }, n / 10},
			{"rollup", func() []*htcache.Entry { return c.RollupCandidates(rollup, nil) }, 1},
			{"other-shape", func() []*htcache.Entry { return c.Candidates(wide, segment) }, 0},
		} {
			b.Run(fmt.Sprintf("entries=%d/request=%s", n, tc.name), func(b *testing.B) {
				if got := len(tc.lookup()); got != tc.want {
					b.Fatalf("%d candidates, want %d", got, tc.want)
				}
				b.ReportAllocs()
				for b.Loop() {
					tc.lookup()
				}
			})
		}
	}
}
