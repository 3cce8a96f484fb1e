package expr

import (
	"math/rand"
	"testing"

	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// randCol is one column of the property tests' schema, with the kind
// every constraint on it carries.
type randCol struct {
	ref  storage.ColRef
	kind types.Kind
}

var randCols = []randCol{
	{colref("customer", "c_age"), types.Int64},
	{colref("customer", "c_mktsegment"), types.String},
	{colref("orders", "o_orderdate"), types.Date},
	{colref("orders", "o_totalprice"), types.Float64},
	{colref("orders", "o_custkey"), types.Int64},
}

// randValue draws from a small domain so bounds collide often.
func randValue(r *rand.Rand, kind types.Kind) types.Value {
	n := int64(r.Intn(8))
	switch kind {
	case types.Date:
		return types.NewDate(9000 + n)
	case types.Float64:
		return types.NewFloat(float64(n) / 2)
	}
	return types.NewInt(n)
}

// randConstraint covers open, closed, half-open, unbounded, point and
// empty intervals, and string IN-sets including the empty set.
func randConstraint(r *rand.Rand, kind types.Kind) Constraint {
	if kind == types.String {
		var set []string
		for _, s := range []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY"} {
			if r.Intn(3) == 0 {
				set = append(set, s)
			}
		}
		if len(set) == 0 {
			return Constraint{Kind: types.String} // the empty set
		}
		return SetConstraint(set...)
	}
	if r.Intn(5) == 0 {
		return IntervalConstraint(kind, PointInterval(randValue(r, kind)))
	}
	var iv Interval
	if r.Intn(4) != 0 {
		iv.HasLo, iv.Lo, iv.LoIncl = true, randValue(r, kind), r.Intn(2) == 0
	}
	if r.Intn(4) != 0 {
		iv.HasHi, iv.Hi, iv.HiIncl = true, randValue(r, kind), r.Intn(2) == 0
	}
	return IntervalConstraint(kind, iv)
}

// randBox constrains each column with probability 1/2, so columns are
// often present in only one of two boxes.
func randBox(r *rand.Rand) Box {
	var preds []Pred
	for _, c := range randCols {
		if r.Intn(2) == 0 {
			preds = append(preds, Pred{Col: c.ref, Con: randConstraint(r, c.kind)})
		}
	}
	return NewBox(preds...)
}

// classifyByIntersect is Classify with the intersection test of its
// original definition: build b ∧ o, ask whether it is empty.
func classifyByIntersect(candidate, request Box) Relation {
	switch {
	case candidate.Equal(request):
		return RelEqual
	case candidate.Covers(request):
		return RelSubsuming
	case request.Covers(candidate):
		return RelPartial
	case !candidate.Intersect(request).Empty():
		return RelOverlapping
	}
	return RelDisjoint
}

// TestIntersectsMatchesIntersect: the merge walk agrees with the
// definition !b.Intersect(o).Empty() on random boxes, and so Classify
// and Disjoint agree with the classification built on it.
func TestIntersectsMatchesIntersect(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	rels := map[Relation]int{}
	for i := 0; i < 20000; i++ {
		a, b := randBox(r), randBox(r)
		if got, want := a.Intersects(b), !a.Intersect(b).Empty(); got != want {
			t.Fatalf("Intersects(%v, %v) = %v, want %v", a, b, got, want)
		}
		want := classifyByIntersect(a, b)
		if got := Classify(a, b); got != want {
			t.Fatalf("Classify(%v, %v) = %v, want %v", a, b, got, want)
		}
		if got := Disjoint(a, b); got != (want == RelDisjoint) {
			t.Fatalf("Disjoint(%v, %v) = %v, Classify says %v", a, b, got, want)
		}
		if !b.Empty() && DisjointNonEmpty(a, b) != (want == RelDisjoint) {
			t.Fatalf("DisjointNonEmpty(%v, %v) disagrees with Classify's %v", a, b, want)
		}
		rels[want]++
	}
	for _, rel := range []Relation{RelDisjoint, RelEqual, RelSubsuming, RelPartial, RelOverlapping} {
		if rels[rel] == 0 {
			t.Errorf("generator never produced a %v pair: %v", rel, rels)
		}
	}
}

// TestConstraintIntersectsMatchesIntersect checks the per-column test
// on its own, including the interval form.
func TestConstraintIntersectsMatchesIntersect(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		kind := randCols[r.Intn(len(randCols))].kind
		a, b := randConstraint(r, kind), randConstraint(r, kind)
		if got, want := a.Intersects(b), !a.Intersect(b).Empty(); got != want {
			t.Fatalf("%v.Intersects(%v) = %v, want %v", a, b, got, want)
		}
		if kind != types.String {
			if got, want := a.Iv.Intersects(b.Iv), !a.Iv.Intersect(b.Iv).Empty(); got != want {
				t.Fatalf("%v.Intersects(%v) = %v, want %v", a.Iv, b.Iv, got, want)
			}
		}
	}
}

// TestIntersectsAllocationFree: rejecting a disjoint candidate, and
// classifying an overlapping or nested one, allocates nothing.
func TestIntersectsAllocationFree(t *testing.T) {
	point := func(k int64) Box {
		return NewBox(
			Pred{Col: colref("customer", "c_custkey"), Con: IntervalConstraint(types.Int64, PointInterval(types.NewInt(k)))},
			Pred{Col: colref("customer", "c_mktsegment"), Con: SetConstraint("BUILDING", "MACHINERY")},
		)
	}
	rng := func(lo, hi int64) Box {
		return NewBox(
			Pred{Col: colref("customer", "c_custkey"), Con: IntervalConstraint(types.Int64, iv(lo, hi))},
			Pred{Col: colref("orders", "o_orderdate"), Con: IntervalConstraint(types.Date, Interval{HasLo: true, Lo: types.NewDate(9000)})},
		)
	}
	cases := []struct {
		name string
		a, b Box
	}{
		{"disjoint", point(1), point(2)},
		{"overlapping", rng(0, 50), rng(25, 75)},
		{"nested", rng(0, 100), rng(10, 20)},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(100, func() { tc.a.Intersects(tc.b) }); n != 0 {
			t.Errorf("%s: Intersects allocates %.1f times", tc.name, n)
		}
		if n := testing.AllocsPerRun(100, func() { Classify(tc.a, tc.b) }); n != 0 {
			t.Errorf("%s: Classify allocates %.1f times", tc.name, n)
		}
		if n := testing.AllocsPerRun(100, func() { Disjoint(tc.a, tc.b) }); n != 0 {
			t.Errorf("%s: Disjoint allocates %.1f times", tc.name, n)
		}
	}
}
