package htcache

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

var (
	colCust   = storage.ColRef{Table: "orders", Column: "o_custkey"}
	colDate   = storage.ColRef{Table: "orders", Column: "o_orderdate"}
	colStatus = storage.ColRef{Table: "orders", Column: "o_orderstatus"}
	colPrice  = storage.ColRef{Table: "orders", Column: "o_totalprice"}
)

func custPoint(k int64) expr.Pred {
	return expr.Pred{Col: colCust, Con: expr.IntervalConstraint(types.Int64, expr.PointInterval(types.NewInt(k)))}
}

func custRange(lo, hi int64) expr.Pred {
	return expr.Pred{Col: colCust, Con: expr.IntervalConstraint(types.Int64, expr.Interval{
		HasLo: true, Lo: types.NewInt(lo), LoIncl: true, HasHi: true, Hi: types.NewInt(hi), HiIncl: true,
	})}
}

// randFilter draws a request or content box over a small domain:
// partition-key points (the indexed case), ranges, string IN-sets of
// one or more values, float points, full constraints, empty constraints
// and the empty box.
func randFilter(r *rand.Rand) expr.Box {
	var preds []expr.Pred
	switch r.Intn(4) {
	case 0, 1:
		preds = append(preds, custPoint(int64(r.Intn(6))))
	case 2:
		lo := int64(r.Intn(6))
		preds = append(preds, custRange(lo, lo+int64(r.Intn(3))-1)) // sometimes empty
	}
	if r.Intn(3) == 0 {
		lo := int64(9000 + r.Intn(4))
		iv := expr.Interval{HasLo: true, Lo: types.NewDate(lo), LoIncl: true}
		if r.Intn(2) == 0 {
			iv = expr.PointInterval(types.NewDate(lo))
		}
		preds = append(preds, expr.Pred{Col: colDate, Con: expr.IntervalConstraint(types.Date, iv)})
	}
	if r.Intn(3) == 0 {
		set := []string{"F", "O", "P"}[:1+r.Intn(3)]
		preds = append(preds, expr.Pred{Col: colStatus, Con: expr.SetConstraint(set[r.Intn(len(set)):]...)})
	}
	switch r.Intn(8) {
	case 0, 1:
		preds = append(preds, expr.Pred{Col: colPrice, Con: expr.IntervalConstraint(types.Float64,
			expr.PointInterval(types.NewFloat(float64(r.Intn(4))/2)))})
	case 2: // a full constraint: constrains nothing the shape rule counts
		preds = append(preds, expr.Pred{Col: colPrice, Con: expr.IntervalConstraint(types.Float64, expr.FullInterval())})
	}
	return expr.NewBox(preds...)
}

// randCols draws a random subset of the oracle's columns in random order
// — a cached table's layout (always holding the key column first when
// key is set) or the columns a request needs stored.
func randCols(r *rand.Rand, key bool) []storage.ColRef {
	var out []storage.ColRef
	for _, c := range []storage.ColRef{colCust, colDate, colStatus, colPrice} {
		if key && c == colCust || r.Intn(3) == 0 {
			out = append(out, c)
		}
	}
	if key {
		r.Shuffle(len(out)-1, func(i, j int) { out[i+1], out[j+1] = out[j+1], out[i+1] })
	} else {
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// layoutHT returns a table of the given columns holding rows rows.
func layoutHT(cols []storage.ColRef, rows int) *hashtable.Table {
	layout := hashtable.Layout{KeyCols: 1}
	for _, c := range cols {
		layout.Cols = append(layout.Cols, storage.ColMeta{Ref: c, Kind: types.Int64})
	}
	ht := hashtable.New(layout)
	row := make([]uint64, len(cols))
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = uint64(i + j)
		}
		ht.Insert(row)
	}
	return ht
}

// oracleLineages are the structural shapes the oracle registers under:
// two join-build keys and an aggregate whose group-by strictly contains
// the roll-up probe's.
func oracleLineages() []Lineage {
	join := lin(0)
	join.Filter = nil
	join2 := join
	join2.KeyCols = []storage.ColRef{colDate}
	agg := join
	agg.Kind = Aggregate
	agg.GroupBy = []storage.ColRef{colCust, colDate}
	agg.KeyCols = agg.GroupBy
	return []Lineage{join, join2, agg}
}

// nonFull lists the columns a box constrains with a non-full constraint.
func nonFull(b expr.Box) []storage.ColRef {
	var out []storage.ColRef
	for _, p := range b {
		if !p.Con.IsFull() {
			out = append(out, p.Col)
		}
	}
	return out
}

// shapeAccepts is the shape rule stated on one entry: its table stores
// every needed column, and its box is empty, or the request's non-full
// columns R are stored and Classify does not call the pair disjoint, or
// R is constrained by the entry's box and the request covers it.
func shapeAccepts(e *Entry, req expr.Box, stored []storage.ColRef) bool {
	snap := e.cur.Load()
	var layout []storage.ColRef
	for _, m := range snap.HT.Layout().Cols {
		layout = append(layout, m.Ref)
	}
	if !refsSubset(stored, layout) {
		return false
	}
	f := snap.Filter
	switch R := nonFull(req); {
	case f.Empty():
		return true
	case refsSubset(R, layout) && expr.Classify(f, req) != expr.RelDisjoint:
		return true
	case refsSubset(R, nonFull(f)) && req.Covers(f):
		return true
	}
	return false
}

// bruteCandidates is the oracle: a full scan of the hot registry for
// ready entries of the probe's structure that the shape rule accepts,
// most recently used first.
func bruteCandidates(c *Cache, match func(*Entry) bool, req expr.Box, stored []storage.ColRef) []*Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Entry
	for _, e := range c.entries {
		if e.ready && match(e) && shapeAccepts(e, req, stored) {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b *Entry) int { return cmp.Compare(b.LastUsed, a.LastUsed) })
	return out
}

// TestCandidateIndexOracle drives a cache of tables with random layouts
// through random lifecycle sequences and checks after every step that
// the indexed lookups, with random needed columns, equal the brute-force
// shape rule over the full bucket, in the same MRU order, and that every
// hot entry sits in the one shape group and index slot its filter and
// layout select.
func TestCandidateIndexOracle(t *testing.T) {
	lins := oracleLineages()
	rollup := lins[2]
	rollup.GroupBy = []storage.ColRef{colCust}
	rollup.KeyCols = rollup.GroupBy
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := New(0)
		c.SetColdBudget(1 << 30)
		var all []*Entry
		pick := func() *Entry {
			if len(all) == 0 {
				return nil
			}
			return all[r.Intn(len(all))]
		}
		narrowed := 0
		for step := 0; step < 400; step++ {
			switch op := r.Intn(20); {
			case op < 6: // register, usually publish
				l := lins[r.Intn(len(lins))]
				l.Filter = randFilter(r)
				e := c.Register(layoutHT(randCols(r, true), 4), l)
				if r.Intn(5) != 0 {
					c.Release(e)
				}
				all = append(all, e)
			case op < 8: // pin + release: a reuse hit
				if e := pick(); e != nil {
					c.Pin(e, 0)
					c.Release(e)
				}
			case op < 9:
				if e := pick(); e != nil {
					c.Touch(e)
				}
			case op < 11: // widen: a pinned point becomes a range
				e := pick()
				if e == nil {
					break
				}
				prev := e.Current()
				if prev == nil || prev.HT == nil || prev.Spilled() {
					break
				}
				wider := []expr.Pred{custRange(int64(r.Intn(3)), int64(3+r.Intn(3)))}
				for _, p := range prev.Filter {
					if p.Col != colCust {
						wider = append(wider, p)
					}
				}
				var cols []storage.ColRef
				for _, m := range prev.HT.Layout().Cols {
					cols = append(cols, m.Ref)
				}
				c.PublishWidened(e, prev, layoutHT(cols, 6), expr.NewBox(wider...))
			case op < 12:
				if e := pick(); e != nil {
					_ = c.Evict(e) // refused while pinned or not hot
				}
			case op < 14: // demote (and spill: no readers) everything unpinned
				c.SetBudget(1)
				c.SetBudget(0)
			case op < 16: // revive
				for _, l := range lins {
					for _, ca := range c.ColdCandidates(l) {
						if r.Intn(2) == 0 {
							c.Revive(ca.Entry, nil)
						}
					}
				}
			case op < 17:
				if e := pick(); e != nil {
					c.Quarantine(e)
				}
			case op < 18:
				c.InvalidateTable("orders")
			case op < 19:
				if r.Intn(4) == 0 {
					c.Clear()
				}
			default:
				if e := pick(); e != nil && e.Pins > 0 {
					c.Release(e)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for q := 0; q < 4; q++ {
				req := randFilter(r)
				stored := randCols(r, false)
				for _, l := range lins {
					probe := l
					probe.Filter = req
					key := l.StructKey()
					match := func(e *Entry) bool { return e.key == key }
					want := bruteCandidates(c, match, req, stored)
					if got := c.Candidates(probe, stored); !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d: Candidates(%v, %v) = %v, oracle %v", seed, step, req, stored, ids(got), ids(want))
					}
					narrowed += len(bruteCandidates(c, match, nil, nil)) - len(want)
				}
				probe := rollup
				probe.Filter = req
				want := bruteCandidates(c, func(e *Entry) bool {
					return e.Lineage.Kind == Aggregate && len(e.Lineage.GroupBy) > 1
				}, req, stored)
				if got := c.RollupCandidates(probe, stored); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: RollupCandidates(%v, %v) = %v, oracle %v", seed, step, req, stored, ids(got), ids(want))
				}
			}
		}
		if narrowed == 0 {
			t.Errorf("seed %d: no lookup dropped an entry; the oracle proves nothing", seed)
		}
	}
}

func ids(es []*Entry) []int64 {
	out := make([]int64, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

// TestPointLookupSkipsDisjoint: a point request visits only its own
// point slot and the residual list — entries pinned to other keys are
// never returned — and a widened entry is re-keyed under its range.
func TestPointLookupSkipsDisjoint(t *testing.T) {
	c := New(0)
	base := lin(0)
	var pinned []*Entry
	for k := int64(0); k < 100; k++ {
		l := base
		l.Filter = expr.NewBox(custPoint(k))
		e := c.Register(makeHT(2), l)
		c.Release(e)
		pinned = append(pinned, e)
	}
	ranged := base
	ranged.Filter = expr.NewBox(custRange(40, 60))
	wide := c.Register(makeHT(2), ranged)
	c.Release(wide)

	probe := base
	probe.Filter = expr.NewBox(custPoint(7))
	if got := c.Candidates(probe, nil); len(got) != 1 || got[0] != pinned[7] {
		t.Fatalf("point 7 candidates = %v", ids(got))
	}
	probe.Filter = expr.NewBox(custPoint(50))
	if got := c.Candidates(probe, nil); len(got) != 2 || got[0] != wide || got[1] != pinned[50] {
		t.Fatalf("point 50 candidates = %v", ids(got))
	}
	probe.Filter = nil
	if got := c.Candidates(probe, nil); len(got) != 101 {
		t.Fatalf("nil request returned %d of 101 entries", len(got))
	}

	// Widen entry 7 from its point to [5, 9]: it must now answer point 8.
	prev := pinned[7].Current()
	if !c.PublishWidened(pinned[7], prev, makeHT(4), expr.NewBox(custRange(5, 9))) {
		t.Fatal("widening lost its CAS")
	}
	probe.Filter = expr.NewBox(custPoint(8))
	if got := c.Candidates(probe, nil); len(got) != 2 || got[0] != pinned[7] || got[1] != pinned[8] {
		t.Fatalf("point 8 candidates after widening = %v", ids(got))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRollupVisitsOnlySupersetBuckets: the roll-up lookup returns only
// entries whose group-by strictly contains the request's.
func TestRollupVisitsOnlySupersetBuckets(t *testing.T) {
	c := New(0)
	reg := func(groupBy ...storage.ColRef) *Entry {
		l := Lineage{Kind: Aggregate, JoinSig: "orders|", KeyCols: groupBy, GroupBy: groupBy, QidCol: -1}
		e := c.Register(makeHT(2), l)
		c.Release(e)
		return e
	}
	same := reg(colCust)
	super := reg(colCust, colDate)
	other := reg(colDate, colStatus)
	probe := Lineage{Kind: Aggregate, JoinSig: "orders|", GroupBy: []storage.ColRef{colCust}}
	if got := c.RollupCandidates(probe, nil); len(got) != 1 || got[0] != super {
		t.Fatalf("roll-up candidates = %v (same %d, super %d, other %d)", ids(got), same.ID, super.ID, other.ID)
	}
}

// TestShapeRuleSkipsUnusableShapes: the two lookups of a cross-shard
// query on the sharded workload. Its join lookup needs c_mktsegment stored,
// which the point lookups' tables lack, so they are never returned; its
// aggregate lookup constrains o_orderdate, which no aggregate stores, so
// only cached aggregates the request covers (exact or partial reuse)
// are returned, not ones it merely overlaps.
func TestShapeRuleSkipsUnusableShapes(t *testing.T) {
	custkey := storage.ColRef{Table: "customer", Column: "c_custkey"}
	age := storage.ColRef{Table: "customer", Column: "c_age"}
	segment := storage.ColRef{Table: "customer", Column: "c_mktsegment"}
	c := New(0)
	build := Lineage{Kind: JoinBuild, JoinSig: "customer|", KeyCols: []storage.ColRef{custkey}, QidCol: -1}
	for k := int64(0); k < 50; k++ {
		l := build
		l.Filter = expr.NewBox(expr.Pred{Col: custkey, Con: expr.IntervalConstraint(types.Int64, expr.PointInterval(types.NewInt(k)))})
		c.Release(c.Register(layoutHT([]storage.ColRef{custkey, age}, 1), l))
	}
	scatter := c.Register(layoutHT([]storage.ColRef{custkey, segment}, 4), build)
	c.Release(scatter)
	if got := c.Candidates(build, []storage.ColRef{segment}); len(got) != 1 || got[0] != scatter {
		t.Fatalf("scatter build lookup = %v, want only entry %d", ids(got), scatter.ID)
	}
	if got := c.Candidates(build, nil); len(got) != 51 {
		t.Fatalf("unfiltered build lookup returned %d of 51 entries", len(got))
	}

	window := func(lo, hi int64) expr.Box {
		return expr.NewBox(expr.Pred{Col: colDate, Con: expr.IntervalConstraint(types.Date, expr.Interval{
			HasLo: true, Lo: types.NewDate(lo), LoIncl: true, HasHi: true, Hi: types.NewDate(hi)})})
	}
	agg := Lineage{Kind: Aggregate, JoinSig: "customer|orders|", KeyCols: []storage.ColRef{segment},
		GroupBy: []storage.ColRef{segment}, QidCol: -1}
	var aggs []*Entry
	for lo := int64(9000); lo < 9100; lo += 10 {
		l := agg
		l.Filter = window(lo, lo+30)
		e := c.Register(layoutHT([]storage.ColRef{segment, {Column: "sum"}}, 5), l)
		c.Release(e)
		aggs = append(aggs, e)
	}
	probe := agg
	probe.Filter = window(9005, 9040) // overlaps four windows, covers only [9010, 9040)
	if got := c.Candidates(probe, agg.GroupBy); len(got) != 1 || got[0] != aggs[1] {
		t.Fatalf("aggregate lookup = %v, want only entry %d", ids(got), aggs[1].ID)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
