package hashstash

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hashstash/hashstasherr"
	"hashstash/internal/testutil"
)

// TestExecContextPreCanceled: a canceled context aborts before any
// execution, with an error satisfying both sentinel checks.
func TestExecContextPreCanceled(t *testing.T) {
	db := openTPCH(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.ExecContext(ctx, q3SQL)
	if !errors.Is(err, hashstasherr.ErrCanceled) {
		t.Fatalf("error %v does not wrap ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// TestExecContextCancelInFlight: canceling while queries run either
// lands a typed cancellation or the query finishes first — never a
// different error, never a corrupt result.
func TestExecContextCancelInFlight(t *testing.T) {
	db := openTPCH(t, WithTuning(Tuning{Parallelism: 2}))
	want := canonical(mustExec(t, db, q3SQL))

	var canceled, completed int
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(i%4) * 200 * time.Microsecond)
			cancel()
		}()
		res, err := db.ExecContext(ctx, q3SQL)
		wg.Wait()
		switch {
		case err == nil:
			completed++
			if got := canonical(res); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("completed run diverged: %v != %v", got, want)
			}
		case errors.Is(err, hashstasherr.ErrCanceled):
			canceled++
		default:
			t.Fatalf("unexpected error kind: %v", err)
		}
	}
	t.Logf("canceled=%d completed=%d", canceled, completed)
}

// TestExecBatchContextEquivalence: the batch path returns byte-
// equivalent results to solo execution, and merges the similar shapes.
func TestExecBatchContextEquivalence(t *testing.T) {
	db := openTPCH(t)
	sqls := []string{
		q3SQL,
		`SELECT c.c_age, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue
		 FROM customer c, orders o, lineitem l
		 WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
		   AND l.l_shipdate >= DATE '1995-06-15'
		 GROUP BY c.c_age`,
		`SELECT c.c_age, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue
		 FROM customer c, orders o, lineitem l
		 WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
		   AND l.l_shipdate >= DATE '1996-01-01'
		 GROUP BY c.c_age`,
	}
	batched, err := db.ExecBatchContext(context.Background(), sqls)
	if err != nil {
		t.Fatal(err)
	}
	solo := openTPCH(t)
	for i, sql := range sqls {
		want := canonical(mustExec(t, solo, sql))
		got := canonical(batched[i])
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("query %d diverged from solo execution", i)
		}
	}
}

// TestExecParsedBatchGroups: under every strategy the shared classifier
// merges same-spine queries into one group and reports it, and every
// answer equals the query's solo run.
func TestExecParsedBatchGroups(t *testing.T) {
	for _, s := range []struct {
		name     string
		strategy Strategy
	}{{"hashstash", CostModel}, {"materialized", Materialized}, {"noreuse", NeverReuse}} {
		t.Run(s.name, func(t *testing.T) { testExecParsedBatchGroups(t, s.strategy) })
	}
}

func testExecParsedBatchGroups(t *testing.T, strategy Strategy) {
	db := openTPCH(t, WithStrategy(strategy))
	q1, err := db.Parse(q3SQL)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := db.Parse(`SELECT c.c_age, SUM(l.l_extendedprice) AS revenue
		FROM customer c, orders o, lineitem l
		WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
		  AND l.l_shipdate >= DATE '1995-09-01'
		GROUP BY c.c_age`)
	if err != nil {
		t.Fatal(err)
	}
	br, err := db.ExecParsedBatch(context.Background(), []*Query{q1, q2})
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("got %d results", len(br.Results))
	}
	var sharedGroups int
	for _, g := range br.Groups {
		if len(g) > 1 {
			sharedGroups++
		}
	}
	if sharedGroups == 0 {
		t.Fatalf("same-spine queries were not merged: groups %v", br.Groups)
	}
	solo := openTPCH(t)
	for i, q := range []*Query{q1, q2} {
		want, err := solo.ExecParsed(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonical(br.Results[i]); fmt.Sprint(got) != fmt.Sprint(canonical(want)) {
			t.Fatalf("query %d diverged from solo execution", i)
		}
	}

	// Three SPJ and three SPJA queries over one customer ⋈ orders spine:
	// the batch merges within each kind, never across, and every answer
	// equals the query's solo run.
	var mixed []*Query
	var sqls []string
	for _, day := range []string{"1994-01-01", "1995-01-01", "1996-01-01"} {
		sqls = append(sqls,
			`SELECT c.c_name, o.o_totalprice FROM customer c, orders o
			 WHERE c.c_custkey = o.o_custkey AND o.o_orderdate >= DATE '`+day+`'`,
			`SELECT c.c_age, SUM(o.o_totalprice) AS spend FROM customer c, orders o
			 WHERE c.c_custkey = o.o_custkey AND o.o_orderdate >= DATE '`+day+`'
			 GROUP BY c.c_age`)
	}
	for _, sql := range sqls {
		q, err := db.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		mixed = append(mixed, q)
	}
	br, err = db.ExecParsedBatch(context.Background(), mixed)
	if err != nil {
		t.Fatalf("mixed SPJ/SPJA batch: %v", err)
	}
	for _, g := range br.Groups {
		for _, qi := range g[1:] {
			if mixed[qi].IsAggregate() != mixed[g[0]].IsAggregate() {
				t.Fatalf("group %v mixes SPJ and SPJA queries", g)
			}
		}
	}
	for i, sql := range sqls {
		want := canonical(mustExec(t, solo, sql))
		if got := canonical(br.Results[i]); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("mixed batch query %d diverged from solo execution", i)
		}
	}
}

// TestSharedPlansHonourStrategy: the strategies that never reuse a hash
// table in place build every shared table fresh, so a second run of a
// batch re-tags nothing its first run cached.
func TestSharedPlansHonourStrategy(t *testing.T) {
	for _, opt := range []Option{WithStrategy(NeverReuse), WithStrategy(Materialized)} {
		db := openTPCH(t, opt)
		q1, err := db.Parse(q3SQL)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := db.Parse(strings.Replace(q3SQL, "1995-03-15", "1995-09-01", 1))
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			br, err := db.ExecParsedBatch(context.Background(), []*Query{q1, q2})
			if err != nil {
				t.Fatal(err)
			}
			if len(br.Groups) != 1 {
				t.Fatalf("run %d: groups %v, want one shared plan", run, br.Groups)
			}
			for i, res := range br.Results {
				for _, d := range res.Decisions {
					if d.Action != 'N' {
						t.Fatalf("run %d query %d: decision %+v reuses a cached table", run, i, d)
					}
				}
			}
		}
	}
}

// TestBatchShapeAndGain: shape keys agree for batchable pairs, ORDER
// BY disqualifies, and the cost model prices sharing of a heavy join
// shape as profitable: on a cold cache the batch interface runs the
// pair as one shared plan.
func TestBatchShapeAndGain(t *testing.T) {
	db := openTPCH(t)
	q1, _ := db.Parse(q3SQL)
	q2, _ := db.Parse(`SELECT c.c_age, SUM(l.l_quantity) AS qty
		FROM customer c, orders o, lineitem l
		WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
		  AND l.l_shipdate >= DATE '1997-01-01'
		GROUP BY c.c_age`)
	s1, ok1 := BatchShape(q1)
	s2, ok2 := BatchShape(q2)
	if !ok1 || !ok2 || s1 != s2 {
		t.Fatalf("same-spine shapes differ: %q/%v vs %q/%v", s1, ok1, s2, ok2)
	}
	qOrd, err := db.Parse(q3SQL + " ORDER BY c.c_age DESC")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := BatchShape(qOrd); ok {
		t.Fatal("ORDER BY query reported batchable")
	}
	// One spine, with and without aggregation: a shared plan cannot
	// serve both, so the shapes differ.
	spj, err := db.Parse(`SELECT c.c_age, l.l_quantity
		FROM customer c, orders o, lineitem l
		WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
		  AND l.l_shipdate >= DATE '1997-01-01'`)
	if err != nil {
		t.Fatal(err)
	}
	if s3, ok := BatchShape(spj); !ok || s3 == s2 {
		t.Fatalf("SPJ and SPJA queries of one spine share shape %q (batchable %v)", s3, ok)
	}
	batch, err := db.ExecParsedBatch(context.Background(), []*Query{q1, q2})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Groups) != 1 || len(batch.Groups[0]) != 2 {
		t.Fatalf("q3 pair ran as groups %v, want one shared plan", batch.Groups)
	}
}

// TestTypedErrors: the error taxonomy is programmatically
// distinguishable via errors.Is / errors.As.
func TestTypedErrors(t *testing.T) {
	db := openTPCH(t)
	if _, err := db.Exec("SELECT n.x FROM nope n"); !errors.Is(err, hashstasherr.ErrUnknownTable) {
		t.Fatalf("unknown table error %v lacks ErrUnknownTable", err)
	}
	if _, err := db.Exec("SELECT c.c_missing FROM customer c"); !errors.Is(err, hashstasherr.ErrUnknownColumn) {
		t.Fatalf("unknown column error %v lacks ErrUnknownColumn", err)
	}
	_, err := db.Exec("SELECT FROM WHERE")
	var pe *hashstasherr.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("syntax error %v is not a *ParseError", err)
	}
	if pe.Pos < 0 || pe.Msg == "" {
		t.Fatalf("ParseError missing position/message: %+v", pe)
	}
}

// TestSessionPreparedCache: a session memoizes Parse by text and
// counts queries.
func TestSessionPreparedCache(t *testing.T) {
	db := openTPCH(t)
	sess := db.NewSession(WithTenant("acme"))
	if sess.Tenant() != "acme" {
		t.Fatalf("tenant = %q", sess.Tenant())
	}
	want := canonical(mustExec(t, db, q3SQL))
	for i := 0; i < 3; i++ {
		res, err := sess.Exec(q3SQL)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonical(res); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatal("session result diverged")
		}
	}
	st := sess.Stats()
	if st.Queries != 3 {
		t.Fatalf("Queries = %d, want 3", st.Queries)
	}
	if st.PreparedHits != 2 {
		t.Fatalf("PreparedHits = %d, want 2", st.PreparedHits)
	}
}

// TestOptionComposition: partial Tuning/Ablations literals compose,
// later options win on overlap, and zero fields leave what is there —
// including the defaults when nothing set them.
func TestOptionComposition(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want config
	}{
		{"none", nil, config{}},
		{"partial literals compose",
			[]Option{
				WithTuning(Tuning{CacheBudget: 1 << 20}),
				WithTuning(Tuning{MorselRows: 512}),
				WithAblations(Ablations{NoPartialReuse: true}),
				WithAblations(Ablations{NoSecondaryIndexes: true}),
			},
			config{
				tuning:    Tuning{CacheBudget: 1 << 20, MorselRows: 512},
				ablations: Ablations{NoPartialReuse: true, NoSecondaryIndexes: true},
			}},
		{"later wins",
			[]Option{
				WithTuning(Tuning{CacheBudget: 1 << 20, Parallelism: 4}),
				WithStrategy(AlwaysReuse),
				WithTuning(Tuning{CacheBudget: 2 << 20}),
				WithStrategy(NeverReuse),
				WithAblations(Ablations{Faults: "a"}),
				WithAblations(Ablations{Faults: "b"}),
			},
			config{
				tuning:    Tuning{CacheBudget: 2 << 20, Parallelism: 4},
				ablations: Ablations{Faults: "b"},
				strategy:  NeverReuse,
			}},
		{"zero fields leave earlier values",
			[]Option{
				WithTuning(Tuning{Parallelism: 3, ColdTierBudget: 7}),
				WithAblations(Ablations{LRUEviction: true}),
				WithTuning(Tuning{}),
				WithAblations(Ablations{}),
				WithTuning(Tuning{Parallelism: 0, IndexBuildBudget: 9}),
			},
			config{
				tuning:    Tuning{Parallelism: 3, ColdTierBudget: 7, IndexBuildBudget: 9},
				ablations: Ablations{LRUEviction: true},
			}},
	}
	for _, tc := range cases {
		var got config
		for _, o := range tc.opts {
			o(&got)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}

	// The engine sees what the config says: an unset Parallelism means
	// all CPUs.
	if got, want := Open().opt.Opts.Workers, runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default workers = %d, want GOMAXPROCS %d", got, want)
	}
}

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExecContextDeadlineInsideMorsel: a deadline that expires while a
// single morsel streams stops it at the next batch, and one that
// expires while a single source batch fans out stops it at the probe's
// next output batch. On one worker with default morsels and NeverReuse
// (every run repeats the whole join), each query outlives a 300 ms
// deadline, and under a 30 ms one ExecContext returns ErrCanceled
// within 100 ms.
func TestExecContextDeadlineInsideMorsel(t *testing.T) {
	db := Open(WithStrategy(NeverReuse), WithTuning(Tuning{Parallelism: 1}))
	if err := db.LoadTPCH(0.01); err != nil {
		t.Fatal(err)
	}
	testutil.CheckDeadlineInsideMorsel(t, func(ctx context.Context, sql string) error {
		_, err := db.ExecContext(ctx, sql)
		return err
	})
}
