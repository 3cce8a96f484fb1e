package hashstash_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hashstash"
	"hashstash/hashstasherr"
	"hashstash/internal/faultinject"
	"hashstash/internal/testutil"
	"hashstash/internal/types"
)

// chaosSpec arms every registered fault point at once: graceful-
// degradation points (publish, revive, spill) at high rates, hard-
// failure points (dispatch, admit) at low rates,
// and a rare operator panic. Seeds are fixed so a failure replays under
// the same hit schedule.
const chaosSpec = "htcache.publish=err:p:0.2:42," +
	"htcache.revive=err:p:0.3:43," +
	"sched.dispatch=err:p:0.02:44," +
	"server.admit=err:p:0.05:46," +
	"spill.encode=err:p:0.3:47," +
	"exec.morsel=panic:p:0.005:48"

// chaosQueries mixes the engine's plan shapes: the 3-way spine with
// varying date cuts (partial/overlapping reuse and widened
// publications), a 2-way aggregate, and index-eligible range scans.
var chaosQueries = []string{
	// Narrow cut first, wider cut second: a cycle that builds the
	// narrow lineitem table then runs the wider query widens the
	// cached snapshot, exercising htcache.publish.
	`SELECT c.c_age, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue
	   FROM customer c, orders o, lineitem l
	   WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
	     AND l.l_shipdate >= DATE '1995-06-01'
	   GROUP BY c.c_age`,
	`SELECT c.c_age, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue
	   FROM customer c, orders o, lineitem l
	   WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
	     AND l.l_shipdate >= DATE '1995-03-15'
	   GROUP BY c.c_age`,
	`SELECT c.c_mktsegment, COUNT(*) AS n, SUM(o.o_totalprice) AS total
	   FROM customer c, orders o
	   WHERE c.c_custkey = o.o_custkey
	   GROUP BY c.c_mktsegment`,
	`SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l
	   WHERE l.l_shipdate >= DATE '1995-03-01' AND l.l_shipdate < DATE '1995-03-15'`,
	`SELECT o.o_orderstatus, COUNT(*) AS n FROM orders o, lineitem l
	   WHERE o.o_orderkey = l.l_orderkey AND l.l_discount > 0.05
	   GROUP BY o.o_orderstatus`,
}

func chaosCanonical(r *hashstash.Result) []string {
	rows := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		var parts []string
		for _, v := range row {
			if v.Kind == types.Float64 {
				parts = append(parts, strconv.FormatFloat(v.F, 'g', -1, 64))
			} else {
				parts = append(parts, v.String())
			}
		}
		rows = append(rows, strings.Join(parts, "|"))
	}
	sort.Strings(rows)
	return rows
}

// chaosEqual compares canonical row sets cell by cell. Aggregated
// floats are compared with a relative tolerance: morsel order under
// the pooled scheduler legitimately perturbs the last bits of a SUM,
// and a fixed-decimal format would flip on rounding boundaries.
func chaosEqual(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		gc, wc := strings.Split(got[i], "|"), strings.Split(want[i], "|")
		if len(gc) != len(wc) {
			return false
		}
		for j := range gc {
			if gc[j] == wc[j] {
				continue
			}
			g, gerr := strconv.ParseFloat(gc[j], 64)
			w, werr := strconv.ParseFloat(wc[j], 64)
			if gerr != nil || werr != nil {
				return false
			}
			if diff := math.Abs(g - w); diff > 1e-9*math.Max(math.Abs(g), math.Abs(w)) {
				return false
			}
		}
	}
	return true
}

// TestChaosStorm is the headline containment test: with every fault
// point armed, a concurrent query storm over a small-budget (forced
// spill/revive) engine must (a) never crash the process, (b) return
// bit-identical results on every surviving query, (c) fail only with
// classified errors, and (d) leak neither goroutines nor epoch
// readers. Run under -race at GOMAXPROCS 1 and 4 in CI.
func TestChaosStorm(t *testing.T) {
	// Parallelism 4 forces a worker pool and morsel splits even on a
	// 1-CPU CI box, and AlwaysReuse forces the partial/overlapping reuse
	// paths whose widened publications htcache.publish guards. The
	// sharded config adds the options the sharded benchmark passes —
	// two shards and TPC-H partition keys — which are ignored, so it
	// must weather the storm exactly as the single-shard one does.
	tuning := hashstash.Tuning{Parallelism: 4, CacheBudget: 96 << 10, ColdTierBudget: 1 << 20}
	sharded := tuning
	sharded.Shards = 2
	configs := []struct {
		name string
		opts []hashstash.Option
	}{
		{"single-shard", []hashstash.Option{hashstash.WithTuning(tuning), hashstash.WithStrategy(hashstash.AlwaysReuse)}},
		{"sharded", []hashstash.Option{
			hashstash.WithTuning(sharded),
			hashstash.WithStrategy(hashstash.AlwaysReuse),
			hashstash.WithPartitionKey("customer", "c_custkey"),
			hashstash.WithPartitionKey("orders", "o_custkey"),
			hashstash.WithPartitionKey("lineitem", "l_orderkey"),
		}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			opts := cfg.opts

			// Control answers come from an unarmed twin — computed before arming
			// so they cannot be poisoned.
			control := hashstash.Open(opts...)
			if err := control.LoadTPCH(0.002); err != nil {
				t.Fatal(err)
			}
			want := make([][]string, len(chaosQueries))
			for i, sql := range chaosQueries {
				res, err := control.Exec(sql)
				if err != nil {
					t.Fatalf("control query %d: %v", i, err)
				}
				want[i] = chaosCanonical(res)
			}

			db := hashstash.Open(opts...)
			if err := db.LoadTPCH(0.002); err != nil {
				t.Fatal(err)
			}
			if err := faultinject.Arm(chaosSpec); err != nil {
				t.Fatal(err)
			}
			defer faultinject.Disarm()

			var ok, failed atomic.Int64
			// run executes one query under faults and checks the outcome: a
			// contained failure must be classified, a survivor must match the
			// control answer.
			run := func(db *hashstash.DB, qi int, where string) {
				res, err := db.ExecContext(context.Background(), chaosQueries[qi])
				if err != nil {
					failed.Add(1)
					if !errors.Is(err, hashstasherr.ErrInternal) &&
						!hashstasherr.IsRetriable(err) &&
						!errors.Is(err, hashstasherr.ErrCanceled) {
						t.Errorf("unclassified chaos error: %v", err)
					}
					return
				}
				ok.Add(1)
				if !chaosEqual(chaosCanonical(res), want[qi]) {
					t.Errorf("%s query %d: result diverged under faults", where, qi)
				}
			}

			// Whether the storm's interleaving ever runs the wide cut against a
			// cached narrow table is up to the scheduler, so seed the widening
			// deterministically: the narrow→wide pair on one goroutine, from a
			// cold cache, until a widened snapshot reaches htcache.publish (an
			// attempt can lose a query to the other armed faults). Each attempt
			// opens its own database: a panic blamed on the narrow table strikes
			// its lineage, and a struck lineage never publishes again in that
			// database.
			for attempt := 0; attempt < 20 && faultinject.Fired("htcache.publish") == 0; attempt++ {
				warm := hashstash.Open(opts...)
				if err := warm.LoadTPCH(0.002); err != nil {
					t.Fatal(err)
				}
				run(warm, 0, "warm-up")
				run(warm, 1, "warm-up")
			}

			const goroutines, iters = 8, 24
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if g == 0 && i%9 == 8 {
							// Periodic cache wipes force rebuilds, demotions and
							// revivals mid-storm.
							db.ClearCache()
						}
						run(db, (g*iters+i)%len(chaosQueries), fmt.Sprintf("goroutine %d iter %d", g, i))
					}
				}(g)
			}
			wg.Wait()

			if ok.Load() == 0 {
				t.Fatal("no query survived the storm — fault rates drown the engine")
			}
			t.Logf("storm: %d ok, %d contained failures", ok.Load(), failed.Load())

			// The storm must actually have exercised the engine points.
			for _, point := range []string{"exec.morsel", "sched.dispatch", "htcache.publish"} {
				if faultinject.Fired(point) == 0 {
					t.Errorf("fault point %s never hit during the storm", point)
				}
			}

			// Full recovery after disarm: every query answers correctly and no
			// contained failure left a pin behind.
			faultinject.Disarm()
			for i, sql := range chaosQueries {
				res, err := db.Exec(sql)
				if err != nil {
					t.Fatalf("post-storm query %d: %v", i, err)
				}
				if !chaosEqual(chaosCanonical(res), want[i]) {
					t.Errorf("post-storm query %d diverged", i)
				}
			}
			if pinned := db.CacheStats().Pinned; pinned != 0 {
				t.Errorf("%d pins leaked through the storm", pinned)
			}
		})
	}
}
