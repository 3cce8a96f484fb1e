package htcache

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"hashstash/internal/expr"
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
// one or more values, float points, empty constraints and the empty box.
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
	if r.Intn(5) == 0 {
		preds = append(preds, expr.Pred{Col: colPrice, Con: expr.IntervalConstraint(types.Float64,
			expr.PointInterval(types.NewFloat(float64(r.Intn(4))/2)))})
	}
	return expr.NewBox(preds...)
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

// bruteCandidates is the oracle: a full scan of the hot registry for
// ready entries of the probe's structure that Classify does not call
// disjoint from the request, most recently used first.
func bruteCandidates(c *Cache, match func(*Entry) bool, req expr.Box) []*Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Entry
	for _, e := range c.entries {
		if e.ready && match(e) && expr.Classify(e.cur.Load().Filter, req) != expr.RelDisjoint {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b *Entry) int { return cmp.Compare(b.LastUsed, a.LastUsed) })
	return out
}

// TestCandidateIndexOracle drives a cache through random lifecycle
// sequences and checks after every step that the indexed lookups equal
// the brute-force filter of the full bucket, in the same MRU order, and
// that every hot entry sits in the one index slot its filter selects.
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
		for step := 0; step < 400; step++ {
			switch op := r.Intn(20); {
			case op < 6: // register, usually publish
				l := lins[r.Intn(len(lins))]
				l.Filter = randFilter(r)
				e := c.Register(makeHT(4), l)
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
				c.PublishWidened(e, prev, makeHT(6), expr.NewBox(wider...))
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
				for _, l := range lins {
					probe := l
					probe.Filter = req
					key := l.StructKey()
					want := bruteCandidates(c, func(e *Entry) bool { return e.key == key }, req)
					if got := c.Candidates(probe); !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d: Candidates(%v) = %v, oracle %v", seed, step, req, ids(got), ids(want))
					}
				}
				probe := rollup
				probe.Filter = req
				want := bruteCandidates(c, func(e *Entry) bool {
					return e.Lineage.Kind == Aggregate && len(e.Lineage.GroupBy) > 1
				}, req)
				if got := c.RollupCandidates(probe); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: RollupCandidates(%v) = %v, oracle %v", seed, step, req, ids(got), ids(want))
				}
			}
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
	if got := c.Candidates(probe); len(got) != 1 || got[0] != pinned[7] {
		t.Fatalf("point 7 candidates = %v", ids(got))
	}
	probe.Filter = expr.NewBox(custPoint(50))
	if got := c.Candidates(probe); len(got) != 2 || got[0] != wide || got[1] != pinned[50] {
		t.Fatalf("point 50 candidates = %v", ids(got))
	}
	probe.Filter = nil
	if got := c.Candidates(probe); len(got) != 101 {
		t.Fatalf("nil request returned %d of 101 entries", len(got))
	}

	// Widen entry 7 from its point to [5, 9]: it must now answer point 8.
	prev := pinned[7].Current()
	if !c.PublishWidened(pinned[7], prev, makeHT(4), expr.NewBox(custRange(5, 9))) {
		t.Fatal("widening lost its CAS")
	}
	probe.Filter = expr.NewBox(custPoint(8))
	if got := c.Candidates(probe); len(got) != 2 || got[0] != pinned[7] || got[1] != pinned[8] {
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
	if got := c.RollupCandidates(probe); len(got) != 1 || got[0] != super {
		t.Fatalf("roll-up candidates = %v (same %d, super %d, other %d)", ids(got), same.ID, super.ID, other.ID)
	}
}
