// Package expr implements the predicate and expression model of
// HashStash. Predicates are conjunctions ("boxes") of single-column
// constraints — intervals over numeric/date columns and value sets over
// string columns. The reuse-aware optimizer classifies a cached hash
// table against a requesting operator purely with the set algebra defined
// here: equality (exact reuse), containment (subsuming / partial reuse),
// intersection (overlapping reuse) and difference (the residual predicate
// that fetches "missing" tuples from base tables).
package expr

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"hashstash/internal/types"
)

// Interval is a (possibly half-open, possibly unbounded) interval over an
// ordered column domain. The zero Interval is unbounded on both sides,
// i.e. the full domain.
type Interval struct {
	HasLo  bool
	Lo     types.Value
	LoIncl bool
	HasHi  bool
	Hi     types.Value
	HiIncl bool
}

// FullInterval returns the unconstrained interval.
func FullInterval() Interval { return Interval{} }

// PointInterval returns the degenerate interval [v, v].
func PointInterval(v types.Value) Interval {
	return Interval{HasLo: true, Lo: v, LoIncl: true, HasHi: true, Hi: v, HiIncl: true}
}

// Contains reports whether v lies inside the interval.
func (iv Interval) Contains(v types.Value) bool {
	if iv.HasLo {
		c := v.Compare(iv.Lo)
		if c < 0 || (c == 0 && !iv.LoIncl) {
			return false
		}
	}
	if iv.HasHi {
		c := v.Compare(iv.Hi)
		if c > 0 || (c == 0 && !iv.HiIncl) {
			return false
		}
	}
	return true
}

// Empty reports whether the interval contains no values. Discrete
// domains are treated conservatively: only orderings provable for every
// domain count as empty.
func (iv Interval) Empty() bool {
	if !iv.HasLo || !iv.HasHi {
		return false
	}
	c := iv.Lo.Compare(iv.Hi)
	if c > 0 {
		return true
	}
	if c == 0 {
		return !(iv.LoIncl && iv.HiIncl)
	}
	return false
}

// Equal reports structural interval equality.
func (iv Interval) Equal(o Interval) bool {
	if iv.HasLo != o.HasLo || iv.HasHi != o.HasHi {
		return false
	}
	if iv.HasLo && (!iv.Lo.Equal(o.Lo) || iv.LoIncl != o.LoIncl) {
		return false
	}
	if iv.HasHi && (!iv.Hi.Equal(o.Hi) || iv.HiIncl != o.HiIncl) {
		return false
	}
	return true
}

// loCovers reports whether iv's lower bound admits everything o's lower
// bound admits.
func (iv Interval) loCovers(o Interval) bool {
	if !iv.HasLo {
		return true
	}
	if !o.HasLo {
		return false
	}
	c := iv.Lo.Compare(o.Lo)
	if c < 0 {
		return true
	}
	if c > 0 {
		return false
	}
	return iv.LoIncl || !o.LoIncl
}

// hiCovers reports whether iv's upper bound admits everything o's upper
// bound admits.
func (iv Interval) hiCovers(o Interval) bool {
	if !iv.HasHi {
		return true
	}
	if !o.HasHi {
		return false
	}
	c := iv.Hi.Compare(o.Hi)
	if c > 0 {
		return true
	}
	if c < 0 {
		return false
	}
	return iv.HiIncl || !o.HiIncl
}

// Covers reports whether iv ⊇ o as sets.
func (iv Interval) Covers(o Interval) bool {
	if o.Empty() {
		return true
	}
	return iv.loCovers(o) && iv.hiCovers(o)
}

// Intersect returns the interval iv ∩ o: the tighter of the two lower
// bounds combined with the tighter of the two upper bounds.
func (iv Interval) Intersect(o Interval) Interval {
	out := iv
	if o.HasLo {
		if !out.HasLo {
			out.HasLo, out.Lo, out.LoIncl = true, o.Lo, o.LoIncl
		} else if c := o.Lo.Compare(out.Lo); c > 0 || (c == 0 && !o.LoIncl) {
			out.Lo, out.LoIncl = o.Lo, o.LoIncl
		}
	}
	if o.HasHi {
		if !out.HasHi {
			out.HasHi, out.Hi, out.HiIncl = true, o.Hi, o.HiIncl
		} else if c := o.Hi.Compare(out.Hi); c < 0 || (c == 0 && !o.HiIncl) {
			out.Hi, out.HiIncl = o.Hi, o.HiIncl
		}
	}
	return out
}

// Intersects reports whether iv ∩ o is non-empty.
func (iv Interval) Intersects(o Interval) bool { return iv.overlaps(&o) }

// overlaps is Intersects without building the intersection: it picks the
// tighter bound on each side exactly as Intersect does and applies
// Empty's test to the pair, referring to the operands' bounds in place.
func (iv *Interval) overlaps(o *Interval) bool {
	hasLo, lo, loIncl := iv.HasLo, &iv.Lo, iv.LoIncl
	if o.HasLo {
		if !hasLo {
			hasLo, lo, loIncl = true, &o.Lo, o.LoIncl
		} else if c := o.Lo.Compare(*lo); c > 0 || (c == 0 && !o.LoIncl) {
			lo, loIncl = &o.Lo, o.LoIncl
		}
	}
	hasHi, hi, hiIncl := iv.HasHi, &iv.Hi, iv.HiIncl
	if o.HasHi {
		if !hasHi {
			hasHi, hi, hiIncl = true, &o.Hi, o.HiIncl
		} else if c := o.Hi.Compare(*hi); c < 0 || (c == 0 && !o.HiIncl) {
			hi, hiIncl = &o.Hi, o.HiIncl
		}
	}
	if !hasLo || !hasHi {
		return true
	}
	c := lo.Compare(*hi)
	return c < 0 || (c == 0 && loIncl && hiIncl)
}

// Difference returns iv \ o as up to two disjoint intervals.
func (iv Interval) Difference(o Interval) []Interval {
	if iv.Empty() {
		return nil
	}
	inter := iv.Intersect(o)
	if inter.Empty() {
		return []Interval{iv}
	}
	var out []Interval
	// Left piece: values in iv below the intersection's lower bound.
	if inter.HasLo {
		left := iv
		left.HasHi, left.Hi, left.HiIncl = true, inter.Lo, !inter.LoIncl
		if !left.Empty() {
			out = append(out, left)
		}
	}
	// Right piece: values in iv above the intersection's upper bound.
	if inter.HasHi {
		right := iv
		right.HasLo, right.Lo, right.LoIncl = true, inter.Hi, !inter.HiIncl
		if !right.Empty() {
			out = append(out, right)
		}
	}
	return out
}

// String renders the interval in math notation.
func (iv Interval) String() string {
	var b strings.Builder
	if iv.HasLo {
		if iv.LoIncl {
			b.WriteByte('[')
		} else {
			b.WriteByte('(')
		}
		b.WriteString(iv.Lo.String())
	} else {
		b.WriteString("(-inf")
	}
	b.WriteString(", ")
	if iv.HasHi {
		b.WriteString(iv.Hi.String())
		if iv.HiIncl {
			b.WriteByte(']')
		} else {
			b.WriteByte(')')
		}
	} else {
		b.WriteString("+inf)")
	}
	return b.String()
}

// Constraint restricts a single column: an Interval for ordered kinds, a
// sorted value set for strings. A Constraint with Kind==String and empty
// Set matches nothing (the empty set), so constructors always populate
// Set for string constraints.
type Constraint struct {
	Kind types.Kind
	Iv   Interval
	Set  []string // sorted, deduplicated; used iff Kind == String
}

// IntervalConstraint builds a numeric/date constraint.
func IntervalConstraint(kind types.Kind, iv Interval) Constraint {
	if kind == types.String {
		panic("expr: interval constraint on string column")
	}
	return Constraint{Kind: kind, Iv: iv}
}

// SetConstraint builds a string IN-set constraint.
func SetConstraint(vals ...string) Constraint {
	set := append([]string(nil), vals...)
	sort.Strings(set)
	// Deduplicate in place.
	out := set[:0]
	for i, s := range set {
		if i == 0 || s != set[i-1] {
			out = append(out, s)
		}
	}
	return Constraint{Kind: types.String, Set: out}
}

// MatchString reports whether a string column value satisfies the
// constraint. MatchString, MatchInt and MatchFloat are the scalar
// matches; they agree with the Filter kernels on every value (for
// strings, FilterCodes over the set's codes).
func (c Constraint) MatchString(s string) bool {
	i := sort.SearchStrings(c.Set, s)
	return i < len(c.Set) && c.Set[i] == s
}

// MatchInt reports whether an int or date column value satisfies the
// constraint.
func (c Constraint) MatchInt(v int64) bool {
	if c.Iv.HasLo {
		lo := c.Iv.Lo.AsInt()
		if v < lo || (v == lo && !c.Iv.LoIncl) {
			return false
		}
	}
	if c.Iv.HasHi {
		hi := c.Iv.Hi.AsInt()
		if v > hi || (v == hi && !c.Iv.HiIncl) {
			return false
		}
	}
	return true
}

// MatchFloat reports whether a float column value satisfies the
// constraint, in types.CompareNum's order: NaN lies above every other
// value, so a lower bound (> or >=) keeps it and an upper bound (< or
// <=) drops it, exactly as Interval.Contains decides.
func (c Constraint) MatchFloat(v float64) bool {
	if c.Iv.HasLo {
		if x := types.CompareNum(v, c.Iv.Lo.AsFloat()); x < 0 || (x == 0 && !c.Iv.LoIncl) {
			return false
		}
	}
	if c.Iv.HasHi {
		if x := types.CompareNum(v, c.Iv.Hi.AsFloat()); x > 0 || (x == 0 && !c.Iv.HiIncl) {
			return false
		}
	}
	return true
}

// FilterInts refines a selection vector in place: it keeps the selected
// positions of data that satisfy the constraint and returns the shortened
// selection. The interval bounds are hoisted out of the row loop, so the
// inner loops are tight compare-and-keep kernels over int64 data.
func (c Constraint) FilterInts(data []int64, sel []int32) []int32 {
	out := sel[:0]
	switch {
	case c.Iv.HasLo && c.Iv.HasHi:
		lo, hi := c.Iv.Lo.AsInt(), c.Iv.Hi.AsInt()
		loIncl, hiIncl := c.Iv.LoIncl, c.Iv.HiIncl
		for _, i := range sel {
			v := data[i]
			if v < lo || (v == lo && !loIncl) || v > hi || (v == hi && !hiIncl) {
				continue
			}
			out = append(out, i)
		}
	case c.Iv.HasLo:
		lo, loIncl := c.Iv.Lo.AsInt(), c.Iv.LoIncl
		for _, i := range sel {
			v := data[i]
			if v > lo || (v == lo && loIncl) {
				out = append(out, i)
			}
		}
	case c.Iv.HasHi:
		hi, hiIncl := c.Iv.Hi.AsInt(), c.Iv.HiIncl
		for _, i := range sel {
			v := data[i]
			if v < hi || (v == hi && hiIncl) {
				out = append(out, i)
			}
		}
	default:
		return sel
	}
	return out
}

// FilterFloats is FilterInts over float64 data, deciding exactly as
// MatchFloat: a NaN row passes a lower bound and fails an upper one. A
// NaN bound (never a parsed literal) takes MatchFloat row by row.
func (c Constraint) FilterFloats(data []float64, sel []int32) []int32 {
	lo, hi := c.Iv.Lo.AsFloat(), c.Iv.Hi.AsFloat()
	loIncl, hiIncl := c.Iv.LoIncl, c.Iv.HiIncl
	out := sel[:0]
	switch {
	case (c.Iv.HasLo && lo != lo) || (c.Iv.HasHi && hi != hi):
		for _, i := range sel {
			if c.MatchFloat(data[i]) {
				out = append(out, i)
			}
		}
	case c.Iv.HasLo && c.Iv.HasHi:
		// NaN fails the upper bound's comparisons: dropped.
		for _, i := range sel {
			v := data[i]
			if (v > lo || (v == lo && loIncl)) && (v < hi || (v == hi && hiIncl)) {
				out = append(out, i)
			}
		}
	case c.Iv.HasLo:
		for _, i := range sel {
			v := data[i]
			if v > lo || (v == lo && loIncl) || v != v {
				out = append(out, i)
			}
		}
	case c.Iv.HasHi:
		for _, i := range sel {
			v := data[i]
			if v < hi || (v == hi && hiIncl) {
				out = append(out, i)
			}
		}
	default:
		return sel
	}
	return out
}

// FilterCodes refines a selection vector against a string IN-set
// resolved to dictionary codes (set sorted ascending; a string no
// column holds has no code, so it is simply absent). The overwhelmingly
// common single-value set becomes one integer compare per row; larger
// sets binary-search the codes.
func FilterCodes(set, data []uint32, sel []int32) []int32 {
	out := sel[:0]
	switch len(set) {
	case 0:
	case 1:
		want := set[0]
		for _, i := range sel {
			if data[i] == want {
				out = append(out, i)
			}
		}
	default:
		for _, i := range sel {
			if _, ok := slices.BinarySearch(set, data[i]); ok {
				out = append(out, i)
			}
		}
	}
	return out
}

// Empty reports whether the constraint matches no values.
func (c Constraint) Empty() bool {
	if c.Kind == types.String {
		return len(c.Set) == 0
	}
	return c.Iv.Empty()
}

// IsFull reports whether the constraint admits every value of the domain.
// Finite string sets are never full.
func (c Constraint) IsFull() bool {
	if c.Kind == types.String {
		return false
	}
	return !c.Iv.HasLo && !c.Iv.HasHi
}

// Equal reports set equality of two constraints over the same column.
func (c Constraint) Equal(o Constraint) bool { return c.equal(&o) }

// equal is Equal on pointers (the box algebra's form: no copies).
func (c *Constraint) equal(o *Constraint) bool {
	if c.Kind != o.Kind {
		return false
	}
	if c.Kind == types.String {
		return slices.Equal(c.Set, o.Set)
	}
	return c.Iv.Equal(o.Iv)
}

// Covers reports whether c ⊇ o as sets.
func (c Constraint) Covers(o Constraint) bool { return c.covers(&o) }

// covers is Covers on pointers.
func (c *Constraint) covers(o *Constraint) bool {
	if c.Kind == types.String {
		for _, s := range o.Set {
			if _, found := slices.BinarySearch(c.Set, s); !found {
				return false
			}
		}
		return true
	}
	return c.Iv.Covers(o.Iv)
}

// Intersect returns c ∩ o.
func (c Constraint) Intersect(o Constraint) Constraint {
	if c.Kind == types.String {
		var set []string
		for _, s := range c.Set {
			if o.MatchString(s) {
				set = append(set, s)
			}
		}
		return Constraint{Kind: types.String, Set: set}
	}
	return Constraint{Kind: c.Kind, Iv: c.Iv.Intersect(o.Iv)}
}

// Intersects reports whether c ∩ o is non-empty.
func (c Constraint) Intersects(o Constraint) bool { return c.overlaps(&o) }

// overlaps is Intersects on pointers, without building the intersection:
// c's kind decides the representation, exactly as in Intersect.
func (c *Constraint) overlaps(o *Constraint) bool {
	if c.Kind == types.String {
		for _, s := range c.Set {
			if _, found := slices.BinarySearch(o.Set, s); found {
				return true
			}
		}
		return false
	}
	return c.Iv.overlaps(&o.Iv)
}

// isEmpty is Empty on a pointer (no copy of the constraint).
func (c *Constraint) isEmpty() bool {
	if c.Kind == types.String {
		return len(c.Set) == 0
	}
	return c.Iv.Empty()
}

// Difference returns c \ o as zero or more disjoint constraints.
func (c Constraint) Difference(o Constraint) []Constraint {
	if c.Kind == types.String {
		var set []string
		for _, s := range c.Set {
			if !o.MatchString(s) {
				set = append(set, s)
			}
		}
		if len(set) == 0 {
			return nil
		}
		return []Constraint{{Kind: types.String, Set: set}}
	}
	ivs := c.Iv.Difference(o.Iv)
	out := make([]Constraint, 0, len(ivs))
	for _, iv := range ivs {
		out = append(out, Constraint{Kind: c.Kind, Iv: iv})
	}
	return out
}

// Full returns the unconstrained constraint for a kind. For strings there
// is no finite universal set, so Full is represented by an interval-kind
// wildcard; callers treat absence of a Pred as "unconstrained" instead.
func Full(kind types.Kind) Constraint {
	if kind == types.String {
		panic("expr: no universal string constraint; omit the predicate instead")
	}
	return Constraint{Kind: kind}
}

// String renders the constraint.
func (c Constraint) String() string {
	if c.Kind == types.String {
		return fmt.Sprintf("IN {%s}", strings.Join(c.Set, ","))
	}
	return c.Iv.String()
}
