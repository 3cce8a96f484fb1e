package optimizer

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"hashstash/internal/catalog"
	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/htcache"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/tpch"
	"hashstash/internal/types"
)

// testEnv bundles a small TPC-H database with a fresh optimizer.
type testEnv struct {
	cat *catalog.Catalog
	opt *Optimizer
}

func newEnv(t *testing.T, opts Options) *testEnv {
	t.Helper()
	db, err := tpch.Generate(tpch.Config{SF: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	for _, tbl := range db.Tables() {
		cat.Register(tbl)
	}
	return &testEnv{cat: cat, opt: New(cat, htcache.New(0), nil, opts)}
}

// bareNeverReuse is the never-reuse reference with every mechanism
// switched off.
var bareNeverReuse = Options{Strategy: NeverReuse, NoBenefitOptimizations: true, NoPartialReuse: true, NoOverlappingReuse: true}

func ref(a, c string) storage.ColRef { return storage.ColRef{Table: a, Column: c} }

func shipdateBox(lo, hi string) expr.Box {
	iv := expr.Interval{}
	if lo != "" {
		iv.HasLo, iv.Lo, iv.LoIncl = true, types.NewDate(types.MustParseDate(lo)), true
	}
	if hi != "" {
		iv.HasHi, iv.Hi, iv.HiIncl = true, types.NewDate(types.MustParseDate(hi)), false
	}
	return expr.NewBox(expr.Pred{Col: ref("l", "l_shipdate"), Con: expr.IntervalConstraint(types.Date, iv)})
}

// q3 is the paper's seed query: 3-way join with aggregation.
func q3(lo, hi string) *plan.Query {
	return &plan.Query{
		Relations: []plan.Rel{
			{Alias: "c", Table: "customer"},
			{Alias: "o", Table: "orders"},
			{Alias: "l", Table: "lineitem"},
		},
		Joins: []plan.JoinPred{
			{Left: ref("c", "c_custkey"), Right: ref("o", "o_custkey")},
			{Left: ref("o", "o_orderkey"), Right: ref("l", "l_orderkey")},
		},
		Filter:  shipdateBox(lo, hi),
		Select:  []storage.ColRef{ref("c", "c_age")},
		GroupBy: []storage.ColRef{ref("c", "c_age")},
		Aggs: []expr.AggSpec{
			{Func: expr.AggSum, Arg: &expr.Col{Ref: ref("l", "l_extendedprice")}, Alias: "revenue"},
		},
	}
}

// spjQuery is a plain join without aggregation.
func spjQuery(lo, hi string) *plan.Query {
	return &plan.Query{
		Relations: []plan.Rel{
			{Alias: "o", Table: "orders"},
			{Alias: "l", Table: "lineitem"},
		},
		Joins:  []plan.JoinPred{{Left: ref("o", "o_orderkey"), Right: ref("l", "l_orderkey")}},
		Filter: shipdateBox(lo, hi),
		Select: []storage.ColRef{ref("o", "o_orderkey"), ref("l", "l_extendedprice")},
	}
}

// rowsOf is a result's answer boxed row by row: the one way tests read
// an answer as rows.
func rowsOf(r *Result) [][]types.Value {
	r.Box()
	return r.Rows
}

// canonical renders result rows order-independently for comparison.
func canonical(r *Result) []string {
	rows := rowsOf(r)
	out := make([]string, 0, len(rows))
	for _, row := range rows {
		var parts []string
		for _, v := range row {
			if v.Kind == types.Float64 {
				parts = append(parts, fmt.Sprintf("%.4f", v.F))
			} else {
				parts = append(parts, v.String())
			}
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

func sameResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	ca, cb := canonical(a), canonical(b)
	if len(ca) != len(cb) {
		t.Fatalf("%s: row counts differ: %d vs %d", label, len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("%s: row %d differs:\n  %s\n  %s", label, i, ca[i], cb[i])
		}
	}
}

func TestSPJFreshExecution(t *testing.T) {
	env := newEnv(t, Options{})
	res, err := env.opt.Run(spjQuery("1995-01-01", "1996-01-01"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsOf(res)) == 0 {
		t.Fatal("no rows")
	}
	if len(res.Columns) != 2 || res.Columns[0] != "o.o_orderkey" {
		t.Errorf("columns = %v", res.Columns)
	}
	// One join build decision, N.
	found := false
	for _, d := range res.Decisions {
		if strings.HasPrefix(d.Operator, "build(") && d.Action == 'N' {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a fresh build decision: %v", res.Decisions)
	}
}

func TestSPJAgainstNaiveJoin(t *testing.T) {
	env := newEnv(t, Options{})
	q := spjQuery("1995-06-01", "1995-08-01")
	res, err := env.opt.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	// Naive nested-loop reference over the base tables.
	orders := env.cat.Table("orders")
	lineitem := env.cat.Table("lineitem")
	lo, hi := types.MustParseDate("1995-06-01"), types.MustParseDate("1995-08-01")
	dates := map[int64]bool{}
	byOrder := map[int64]bool{}
	for i := 0; i < orders.NumRows(); i++ {
		byOrder[orders.Column("o_orderkey").Ints[i]] = true
	}
	want := 0
	lkeys := lineitem.Column("l_orderkey").Ints
	lship := lineitem.Column("l_shipdate").Ints
	for i := range lkeys {
		if lship[i] >= lo && lship[i] < hi && byOrder[lkeys[i]] {
			want++
		}
	}
	_ = dates
	if len(rowsOf(res)) != want {
		t.Fatalf("join rows = %d, want %d", len(rowsOf(res)), want)
	}
}

func TestAggregateFreshMatchesManual(t *testing.T) {
	env := newEnv(t, Options{})
	q := q3("1995-01-01", "")
	res, err := env.opt.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsOf(res)) == 0 {
		t.Fatal("no rows")
	}
	if res.Columns[0] != "c.c_age" || res.Columns[1] != "revenue" {
		t.Fatalf("columns = %v", res.Columns)
	}

	// Manual reference aggregation.
	cust := env.cat.Table("customer")
	orders := env.cat.Table("orders")
	line := env.cat.Table("lineitem")
	ageByCust := map[int64]int64{}
	for i := 0; i < cust.NumRows(); i++ {
		ageByCust[cust.Column("c_custkey").Ints[i]] = cust.Column("c_age").Ints[i]
	}
	custByOrder := map[int64]int64{}
	for i := 0; i < orders.NumRows(); i++ {
		custByOrder[orders.Column("o_orderkey").Ints[i]] = orders.Column("o_custkey").Ints[i]
	}
	lo := types.MustParseDate("1995-01-01")
	wantRev := map[int64]float64{}
	lkeys := line.Column("l_orderkey").Ints
	lship := line.Column("l_shipdate").Ints
	lprice := line.Column("l_extendedprice").Floats
	for i := range lkeys {
		if lship[i] < lo {
			continue
		}
		age := ageByCust[custByOrder[lkeys[i]]]
		wantRev[age] += lprice[i]
	}
	if len(rowsOf(res)) != len(wantRev) {
		t.Fatalf("groups = %d, want %d", len(rowsOf(res)), len(wantRev))
	}
	for _, row := range rowsOf(res) {
		age, rev := row[0].I, row[1].F
		if math.Abs(rev-wantRev[age]) > 1e-6*math.Abs(wantRev[age])+1e-9 {
			t.Fatalf("age %d revenue = %f, want %f", age, rev, wantRev[age])
		}
	}
}

// runBoth executes the same query sequence on a reuse-enabled optimizer
// and a never-reuse optimizer over the same catalog, asserting result
// equality at every step.
func runBoth(t *testing.T, env *testEnv, queries []*plan.Query, wantModes []ReuseMode) {
	t.Helper()
	never := New(env.cat, htcache.New(0), nil, Options{Strategy: NeverReuse})
	for i, q := range queries {
		got, err := env.opt.Run(q)
		if err != nil {
			t.Fatalf("query %d (reuse): %v", i, err)
		}
		want, err := never.Run(q)
		if err != nil {
			t.Fatalf("query %d (never): %v", i, err)
		}
		sameResults(t, fmt.Sprintf("query %d", i), got, want)
		if wantModes != nil && i < len(wantModes) {
			mode := aggMode(got)
			if mode != wantModes[i] {
				t.Errorf("query %d agg mode = %v, want %v (decisions %v)", i, mode, wantModes[i], got.Decisions)
			}
		}
	}
}

func aggMode(r *Result) ReuseMode {
	for _, d := range r.Decisions {
		if d.Operator == "agg" {
			return d.Mode
		}
	}
	return ModeNew
}

func TestExactAggregateReuse(t *testing.T) {
	env := newEnv(t, Options{})
	queries := []*plan.Query{
		q3("1995-01-01", ""),
		q3("1995-01-01", ""), // identical → exact reuse of the agg HT
	}
	runBoth(t, env, queries, []ReuseMode{ModeNew, ModeExact})
	if env.opt.Cache.Stats().Hits == 0 {
		t.Error("no cache hits recorded")
	}
}

func TestPartialAggregateReuse(t *testing.T) {
	env := newEnv(t, Options{})
	queries := []*plan.Query{
		q3("1995-02-01", ""), // paper Figure 2: Q1
		q3("1995-01-01", ""), // Q2: wider range → partial reuse
	}
	runBoth(t, env, queries, []ReuseMode{ModeNew, ModePartial})
}

func TestSubsumingAggregateRequiresGroupByColumn(t *testing.T) {
	// Filter on l_shipdate is NOT a group-by column, so subsuming reuse
	// of the aggregate must be rejected (fold-in contributions cannot be
	// post-filtered) and the optimizer must fall back to a correct plan.
	env := newEnv(t, Options{})
	queries := []*plan.Query{
		q3("1995-01-01", ""),
		q3("1995-03-01", ""), // narrower → subsuming shape, but unsound for agg
	}
	runBoth(t, env, queries, nil)
	// Whatever the optimizer chose, it must not be subsuming agg reuse.
	res, err := env.opt.Run(q3("1995-04-01", ""))
	if err != nil {
		t.Fatal(err)
	}
	if aggMode(res) == ModeSubsuming {
		t.Error("unsound subsuming aggregate reuse chosen")
	}
}

func TestRollUpReuse(t *testing.T) {
	env := newEnv(t, Options{})
	base := q3("1995-01-01", "")
	base.Select = []storage.ColRef{ref("c", "c_age"), ref("o", "o_orderdate")}
	base.GroupBy = []storage.ColRef{ref("c", "c_age"), ref("o", "o_orderdate")}

	rollup := q3("1995-01-01", "") // same filter, group by c_age only
	queries := []*plan.Query{base, rollup}
	runBoth(t, env, queries, []ReuseMode{ModeNew, ModeExact})
	// The rollup must be answered via post-aggregation (no joins re-run).
	res, _ := env.opt.Run(q3("1995-01-01", ""))
	for _, d := range res.Decisions {
		if strings.HasPrefix(d.Operator, "build(") && d.Action == 'N' {
			t.Errorf("rollup re-ran a join build: %v", res.Decisions)
		}
	}
}

func TestJoinHTReuseAcrossQueries(t *testing.T) {
	env := newEnv(t, Options{})
	// Seed a lineitem-side build HT, then issue a query whose lineitem
	// range is a subset (subsuming reuse) — the cached table must be
	// reused and results must stay correct.
	q1 := spjQuery("1995-02-01", "1995-04-01")
	if _, err := env.opt.Run(q1); err != nil {
		t.Fatal(err)
	}
	// Nearly the whole cached range: reuse avoids the scan+build at a
	// negligible post-filter penalty, so the cost model must pick it.
	q2 := spjQuery("1995-02-02", "1995-03-31")
	res, err := env.opt.Run(q2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range res.Decisions {
		if d.Action == 'S' {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a reused build HT: %v", res.Decisions)
	}
	never := New(env.cat, htcache.New(0), nil, bareNeverReuse)
	want, err := never.Run(q2)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "subsuming join reuse", res, want)

	// Overlapping range: partial/overlapping reuse grows the cached
	// table; subsequent disjoint-range query must stay correct too.
	q3x := spjQuery("1995-03-01", "1995-05-01")
	res3, err := env.opt.Run(q3x)
	if err != nil {
		t.Fatal(err)
	}
	want3, err := never.Run(q3x)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "overlapping join reuse", res3, want3)
}

// TestMaterializedRebuildsJoinInput: under the Materialized strategy a
// reused join input is not probed in place; a pipeline reads every
// cached entry into a private table first. The same sequence under
// AlwaysReuse reuses the same table and reads those entries zero
// times, so the difference in rows in is the cached table's size, and
// the answers agree.
func TestMaterializedRebuildsJoinInput(t *testing.T) {
	run := func(strategy Strategy) (*Result, int) {
		env := newEnv(t, Options{Strategy: strategy, NoPartialReuse: true, NoOverlappingReuse: true})
		if _, err := env.opt.Run(spjQuery("1995-02-01", "1995-04-01")); err != nil {
			t.Fatal(err)
		}
		res, err := env.opt.Run(spjQuery("1995-02-01", "1995-04-01"))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Decisions) != 1 || res.Decisions[0].Mode != ModeExact {
			t.Fatalf("%v: decisions %v, want one exact build reuse", strategy, res.Decisions)
		}
		e := env.opt.Cache.Get(res.Decisions[0].EntryID)
		return res, e.Current().HT.Len()
	}
	mat, cached := run(Materialized)
	always, _ := run(AlwaysReuse)
	sameResults(t, "materialized rebuild", mat, always)
	if got := mat.RowsIn - always.RowsIn; got != int64(cached) {
		t.Errorf("rebuild read %d rows, want the %d cached entries", got, cached)
	}
}

func TestAvgRewriteProducesCorrectValues(t *testing.T) {
	env := newEnv(t, Options{})
	q := q3("1995-01-01", "")
	q.Aggs = []expr.AggSpec{
		{Func: expr.AggAvg, Arg: &expr.Col{Ref: ref("l", "l_extendedprice")}, Alias: "avg_price"},
		{Func: expr.AggCount, Alias: "n"},
	}
	res, err := env.opt.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	never := New(env.cat, htcache.New(0), nil, bareNeverReuse)
	want, err := never.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "avg", res, want)
	if res.Columns[1] != "avg_price" || res.Columns[2] != "n" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestStrategies(t *testing.T) {
	for _, strat := range []Strategy{CostModel, NeverReuse, AlwaysReuse} {
		env := newEnv(t, Options{Strategy: strat})
		queries := []*plan.Query{
			q3("1995-02-01", ""),
			q3("1995-01-01", ""),
			q3("1995-03-01", ""),
		}
		runBoth(t, env, queries, nil)
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{CostModel: "cost-model", NeverReuse: "never-reuse", AlwaysReuse: "always-reuse", Materialized: "materialized", Strategy(9): "strategy(?)"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("Strategy(%d) = %q", s, s.String())
		}
	}
	modes := map[ReuseMode]string{ModeNew: "new", ModeExact: "exact", ModeSubsuming: "subsuming", ModePartial: "partial", ModeOverlapping: "overlapping", ReuseMode(9): "mode(?)"}
	for m, want := range modes {
		if m.String() != want {
			t.Errorf("ReuseMode(%d) = %q", m, m.String())
		}
	}
}

func TestFiveWayJoinPlans(t *testing.T) {
	env := newEnv(t, Options{})
	q := &plan.Query{
		Relations: []plan.Rel{
			{Alias: "c", Table: "customer"},
			{Alias: "o", Table: "orders"},
			{Alias: "l", Table: "lineitem"},
			{Alias: "p", Table: "part"},
			{Alias: "s", Table: "supplier"},
		},
		Joins: []plan.JoinPred{
			{Left: ref("c", "c_custkey"), Right: ref("o", "o_custkey")},
			{Left: ref("o", "o_orderkey"), Right: ref("l", "l_orderkey")},
			{Left: ref("l", "l_partkey"), Right: ref("p", "p_partkey")},
			{Left: ref("l", "l_suppkey"), Right: ref("s", "s_suppkey")},
		},
		Filter:  shipdateBox("1995-01-01", "1996-01-01"),
		Select:  []storage.ColRef{ref("c", "c_age")},
		GroupBy: []storage.ColRef{ref("c", "c_age")},
		Aggs: []expr.AggSpec{
			{Func: expr.AggSum, Arg: &expr.Col{Ref: ref("l", "l_extendedprice")}, Alias: "revenue"},
		},
	}
	runBoth(t, env, []*plan.Query{q, q}, []ReuseMode{ModeNew, ModeExact})
}

func TestEnumerateSubPlans(t *testing.T) {
	env := newEnv(t, Options{})
	// Warm the cache so reuse options appear among the alternatives.
	if _, err := env.opt.Run(q3("1995-01-01", "")); err != nil {
		t.Fatal(err)
	}
	subs, err := env.opt.EnumerateSubPlans(q3("1995-01-01", ""))
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) == 0 {
		t.Fatal("no sub-plans enumerated")
	}
	masks := map[int]bool{}
	for _, s := range subs {
		masks[s.Mask] = true
		if s.Estimated <= 0 {
			t.Errorf("sub-plan %s estimate = %f", s.Tables, s.Estimated)
		}
	}
	// Chain c-o-l: joinable masks are {c,o}, {o,l}, {c,o,l}.
	if len(masks) != 3 {
		t.Errorf("expected 3 joinable masks, got %v", masks)
	}
	// Measure one sub-plan's actual runtime.
	d, err := env.opt.MeasureSubPlan(q3("1995-01-01", ""), subs[0].Node)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("non-positive measured duration")
	}
}

func TestGCDuringWorkloadKeepsResultsCorrect(t *testing.T) {
	// Failure injection: a tiny cache budget forces evictions between
	// and during queries; results must stay correct.
	db, err := tpch.Generate(tpch.Config{SF: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	for _, tbl := range db.Tables() {
		cat.Register(tbl)
	}
	opt := New(cat, htcache.New(64<<10), nil, Options{})
	never := New(cat, htcache.New(0), nil, bareNeverReuse)
	dates := []string{"1995-01-01", "1994-06-01", "1995-06-01", "1994-01-01", "1996-01-01"}
	for i, d := range dates {
		got, err := opt.Run(q3(d, ""))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want, err := never.Run(q3(d, ""))
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("gc query %d", i), got, want)
	}
	if opt.Cache.Stats().Evictions == 0 {
		t.Error("expected evictions under a 64KB budget")
	}
}

// TestWideningQueryAcrossDemotion: every cached entry a widening query
// resolved at plan time is demoted and spilled before it compiles —
// the one window in which the query holds snapshots it has not pinned.
// The query must still answer exactly like a never-reuse run (it
// probes and widens the snapshots it resolved), its publication must
// lose the CAS, its late pins must leave the cold tier's byte
// accounting alone, and the demoted entries must revive afterwards.
func TestWideningQueryAcrossDemotion(t *testing.T) {
	env := newEnv(t, Options{})
	cache := env.opt.Cache
	cache.SetColdBudget(1 << 30)
	never := New(env.cat, htcache.New(0), nil, bareNeverReuse)
	if _, err := env.opt.Run(q3("1995-02-01", "")); err != nil {
		t.Fatal(err)
	}

	q := q3("1995-01-01", "") // wider: partial reuse of the cached aggregate
	planned, err := env.opt.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	agg := planned.Agg.Choice
	if agg.Mode != ModePartial || agg.Snap == nil {
		t.Fatalf("aggregate choice = %v, want partial reuse of a hot snapshot", agg.Mode)
	}
	cache.SetBudget(1) // a concurrent query's GC demotes everything unpinned
	cache.SetBudget(0)
	before := cache.Stats()
	if before.Entries != 0 || !agg.Entry.Current().Spilled() {
		t.Fatalf("%d entries still hot after demotion", before.Entries)
	}
	aggBytes := agg.Entry.Bytes

	compiled, err := env.opt.compile(planned, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &Prepared{o: env.opt, planned: planned, compiled: compiled}
	if err := p.finishSafe(exec.RunParallel(compiled.Pipelines, env.opt.Opts.Parallelism)); err != nil {
		t.Fatal(err)
	}
	got := p.result(0, 0)
	want, err := never.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "widened across a demotion", got, want)

	after := cache.Stats()
	if after.WidenPublished != before.WidenPublished || after.WidenLost != before.WidenLost+1 {
		t.Errorf("widen published %d -> %d, lost %d -> %d; want the CAS lost",
			before.WidenPublished, after.WidenPublished, before.WidenLost, after.WidenLost)
	}
	if after.Tiering.ColdBytes != before.Tiering.ColdBytes || agg.Entry.Bytes != aggBytes {
		t.Errorf("release rewrote cold accounting: ColdBytes %d -> %d, entry Bytes %d -> %d",
			before.Tiering.ColdBytes, after.Tiering.ColdBytes, aggBytes, agg.Entry.Bytes)
	}
	if after.Pinned != 0 {
		t.Errorf("%d entries still pinned", after.Pinned)
	}

	snap := cache.Revive(agg.Entry, nil)
	if snap == nil || snap.HT == nil {
		t.Fatal("demoted aggregate did not revive")
	}
	again, err := env.opt.Run(q3("1995-02-01", ""))
	if err != nil {
		t.Fatal(err)
	}
	wantAgain, err := never.Run(q3("1995-02-01", ""))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "revived aggregate", again, wantAgain)
}

// TestResultOrderMatchesStableSort: a query's ORDER BY / LIMIT applied
// to answer columns (the collector's implementation) returns the prefix
// of a stable sort, ties in input order.
func TestResultOrderMatchesStableSort(t *testing.T) {
	rows := make([][]types.Value, 200)
	cols := []storage.Vec{{Kind: types.Int64}, {Kind: types.Float64}}
	for i := range rows {
		rows[i] = []types.Value{types.NewInt(int64(i)), types.NewFloat(float64(i*7%5) / 2)}
		cols[0].Append(rows[i][0])
		cols[1].Append(rows[i][1])
	}
	columns := []string{"k", "v"}
	for _, desc := range []bool{false, true} {
		want := slices.Clone(rows)
		slices.SortStableFunc(want, func(a, b []types.Value) int {
			if desc {
				return b[1].Compare(a[1])
			}
			return a[1].Compare(b[1])
		})
		for _, limit := range []int{0, 1, 37, 199, 200, 201} {
			q := &plan.Query{OrderBy: &plan.OrderSpec{Col: storage.ColRef{Column: "v"}, Desc: desc}, Limit: limit}
			cut := want
			if limit > 0 && limit < len(want) {
				cut = want[:limit]
			}
			got := &Result{Vecs: resultOrder(q, columns).Apply(cols)}
			if fmt.Sprint(rowsOf(got)) != fmt.Sprint(cut) {
				t.Fatalf("desc=%v limit=%d: got %v, want %v", desc, limit, got.Rows, cut)
			}
		}
	}
}
