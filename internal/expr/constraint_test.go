package expr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hashstash/internal/types"
)

func iv(lo, hi int64) Interval {
	return Interval{HasLo: true, Lo: types.NewInt(lo), LoIncl: true, HasHi: true, Hi: types.NewInt(hi), HiIncl: true}
}

func ivOpen(lo, hi int64, loIncl, hiIncl bool) Interval {
	return Interval{HasLo: true, Lo: types.NewInt(lo), LoIncl: loIncl, HasHi: true, Hi: types.NewInt(hi), HiIncl: hiIncl}
}

func TestIntervalContains(t *testing.T) {
	tests := []struct {
		iv   Interval
		v    int64
		want bool
	}{
		{iv(2, 5), 2, true},
		{iv(2, 5), 5, true},
		{iv(2, 5), 1, false},
		{iv(2, 5), 6, false},
		{ivOpen(2, 5, false, true), 2, false},
		{ivOpen(2, 5, true, false), 5, false},
		{FullInterval(), -1 << 60, true},
		{Interval{HasLo: true, Lo: types.NewInt(3), LoIncl: true}, 1 << 60, true},
	}
	for _, tc := range tests {
		if got := tc.iv.Contains(types.NewInt(tc.v)); got != tc.want {
			t.Errorf("%v.Contains(%d) = %v, want %v", tc.iv, tc.v, got, tc.want)
		}
	}
}

func TestIntervalEmpty(t *testing.T) {
	if iv(2, 5).Empty() || FullInterval().Empty() {
		t.Error("non-empty interval reported empty")
	}
	if !iv(5, 2).Empty() {
		t.Error("[5,2] should be empty")
	}
	if !ivOpen(3, 3, true, false).Empty() || !ivOpen(3, 3, false, true).Empty() {
		t.Error("half-open point should be empty")
	}
	if ivOpen(3, 3, true, true).Empty() {
		t.Error("[3,3] should not be empty")
	}
}

func TestIntervalCovers(t *testing.T) {
	tests := []struct {
		a, b Interval
		want bool
	}{
		{iv(0, 10), iv(2, 5), true},
		{iv(2, 5), iv(0, 10), false},
		{iv(0, 10), iv(0, 10), true},
		{FullInterval(), iv(0, 10), true},
		{iv(0, 10), FullInterval(), false},
		{ivOpen(0, 10, false, true), iv(0, 10), false}, // (0,10] doesn't cover [0,10]
		{iv(0, 10), ivOpen(0, 10, false, false), true},
		{iv(0, 10), iv(20, 10), true}, // empty is covered by anything
	}
	for _, tc := range tests {
		if got := tc.a.Covers(tc.b); got != tc.want {
			t.Errorf("%v.Covers(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestIntervalIntersect(t *testing.T) {
	got := iv(0, 10).Intersect(iv(5, 20))
	if !got.Equal(iv(5, 10)) {
		t.Errorf("intersect = %v, want [5,10]", got)
	}
	got = iv(0, 10).Intersect(FullInterval())
	if !got.Equal(iv(0, 10)) {
		t.Errorf("intersect full = %v", got)
	}
	if iv(0, 4).Intersects(iv(5, 9)) {
		t.Error("disjoint intervals reported intersecting")
	}
	if !iv(0, 5).Intersects(iv(5, 9)) {
		t.Error("touching closed intervals should intersect")
	}
	if ivOpen(0, 5, true, false).Intersects(iv(5, 9)) {
		t.Error("[0,5) and [5,9] should not intersect")
	}
}

func TestIntervalDifference(t *testing.T) {
	// Middle cut: [0,10] \ [3,6] = [0,3) ∪ (6,10]
	diff := iv(0, 10).Difference(iv(3, 6))
	if len(diff) != 2 {
		t.Fatalf("difference pieces = %d, want 2: %v", len(diff), diff)
	}
	if !diff[0].Equal(ivOpen(0, 3, true, false)) {
		t.Errorf("left piece = %v", diff[0])
	}
	if !diff[1].Equal(ivOpen(6, 10, false, true)) {
		t.Errorf("right piece = %v", diff[1])
	}

	// Left overlap: [0,10] \ [-5,4] = (4,10]
	diff = iv(0, 10).Difference(iv(-5, 4))
	if len(diff) != 1 || !diff[0].Equal(ivOpen(4, 10, false, true)) {
		t.Errorf("left overlap diff = %v", diff)
	}

	// Disjoint: unchanged.
	diff = iv(0, 10).Difference(iv(20, 30))
	if len(diff) != 1 || !diff[0].Equal(iv(0, 10)) {
		t.Errorf("disjoint diff = %v", diff)
	}

	// Full cover: empty.
	if diff = iv(3, 6).Difference(iv(0, 10)); len(diff) != 0 {
		t.Errorf("covered diff = %v", diff)
	}

	// Paper's partial-reuse example: requested shipdate >= 2015-01-01,
	// cached shipdate >= 2015-02-01 → residual [2015-01-01, 2015-02-01).
	req := Interval{HasLo: true, Lo: types.NewDate(types.MustParseDate("2015-01-01")), LoIncl: true}
	cached := Interval{HasLo: true, Lo: types.NewDate(types.MustParseDate("2015-02-01")), LoIncl: true}
	diff = req.Difference(cached)
	if len(diff) != 1 {
		t.Fatalf("paper residual pieces = %v", diff)
	}
	want := Interval{
		HasLo: true, Lo: types.NewDate(types.MustParseDate("2015-01-01")), LoIncl: true,
		HasHi: true, Hi: types.NewDate(types.MustParseDate("2015-02-01")), HiIncl: false,
	}
	if !diff[0].Equal(want) {
		t.Errorf("paper residual = %v, want %v", diff[0], want)
	}
}

// Property: difference pieces are disjoint from o, contained in the
// original, and together with (iv ∩ o) cover every sampled point of iv.
func TestIntervalDifferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(a0, a1, b0, b1 int8) bool {
		a := iv(int64(min8(a0, a1)), int64(max8(a0, a1)))
		b := iv(int64(min8(b0, b1)), int64(max8(b0, b1)))
		pieces := a.Difference(b)
		for v := int64(-130); v <= 130; v++ {
			val := types.NewInt(v)
			inA, inB := a.Contains(val), b.Contains(val)
			inPieces := false
			hits := 0
			for _, p := range pieces {
				if p.Contains(val) {
					inPieces = true
					hits++
				}
			}
			if hits > 1 {
				return false // pieces must be disjoint
			}
			if inPieces != (inA && !inB) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: Covers is consistent with pointwise containment, and
// Intersect is the pointwise AND.
func TestIntervalAlgebraProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := func(a0, a1, b0, b1 int8, openBits uint8) bool {
		a := ivOpen(int64(min8(a0, a1)), int64(max8(a0, a1)), openBits&1 == 0, openBits&2 == 0)
		b := ivOpen(int64(min8(b0, b1)), int64(max8(b0, b1)), openBits&4 == 0, openBits&8 == 0)
		inter := a.Intersect(b)
		coversHolds := true
		for v := int64(-130); v <= 130; v++ {
			val := types.NewInt(v)
			if inter.Contains(val) != (a.Contains(val) && b.Contains(val)) {
				return false
			}
			if b.Contains(val) && !a.Contains(val) {
				coversHolds = false
			}
		}
		if a.Covers(b) && !coversHolds {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func min8(a, b int8) int8 {
	if a < b {
		return a
	}
	return b
}

func max8(a, b int8) int8 {
	if a > b {
		return a
	}
	return b
}

func TestSetConstraint(t *testing.T) {
	c := SetConstraint("B", "A", "B", "C")
	if len(c.Set) != 3 {
		t.Fatalf("set = %v, want deduplicated 3", c.Set)
	}
	if !c.MatchString("A") || !c.MatchString("C") || c.MatchString("Z") || c.MatchString("") {
		t.Error("MatchString broken")
	}

	d := SetConstraint("A", "B")
	if !c.Covers(d) || d.Covers(c) {
		t.Error("set covers broken")
	}
	if !c.Equal(SetConstraint("C", "B", "A")) {
		t.Error("set equality should ignore order")
	}

	inter := c.Intersect(SetConstraint("B", "Z"))
	if len(inter.Set) != 1 || inter.Set[0] != "B" {
		t.Errorf("set intersect = %v", inter.Set)
	}
	diff := c.Difference(SetConstraint("B"))
	if len(diff) != 1 || len(diff[0].Set) != 2 {
		t.Errorf("set diff = %v", diff)
	}
	if got := c.Difference(c); got != nil {
		t.Errorf("self diff = %v, want nil", got)
	}
	if !SetConstraint().Empty() {
		t.Error("empty set should be Empty")
	}
	if c.Empty() || c.IsFull() {
		t.Error("finite set is neither empty nor full")
	}
}

func TestConstraintScalarsAndHelpers(t *testing.T) {
	ic := IntervalConstraint(types.Int64, iv(10, 20))
	if !ic.MatchInt(10) || !ic.MatchInt(20) || ic.MatchInt(9) || ic.MatchInt(21) {
		t.Error("MatchInt bounds broken")
	}
	open := IntervalConstraint(types.Int64, ivOpen(10, 20, false, false))
	if open.MatchInt(10) || open.MatchInt(20) || !open.MatchInt(15) {
		t.Error("MatchInt open bounds broken")
	}
	fc := IntervalConstraint(types.Float64, Interval{HasLo: true, Lo: types.NewFloat(0.5), LoIncl: true})
	if !fc.MatchFloat(0.5) || fc.MatchFloat(0.4) || !fc.MatchFloat(99) {
		t.Error("MatchFloat broken")
	}
	if !Full(types.Int64).IsFull() {
		t.Error("Full should be full")
	}
	if Full(types.Int64).Empty() {
		t.Error("Full should not be empty")
	}
}

func TestIntervalConstraintOnStringPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	IntervalConstraint(types.String, FullInterval())
}

func TestFullOnStringPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Full(types.String)
}

func TestIntervalString(t *testing.T) {
	if s := iv(1, 2).String(); s != "[1, 2]" {
		t.Errorf("String = %q", s)
	}
	if s := FullInterval().String(); s != "(-inf, +inf)" {
		t.Errorf("String = %q", s)
	}
	if s := SetConstraint("A", "B").String(); s != "IN {A,B}" {
		t.Errorf("set String = %q", s)
	}
}
