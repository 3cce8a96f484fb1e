package expr

import (
	"sort"
	"strings"

	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Pred is a single-column conjunct: column ∈ constraint.
type Pred struct {
	Col storage.ColRef
	Con Constraint
}

// String renders the predicate.
func (p Pred) String() string { return p.Col.String() + " " + p.Con.String() }

// Box is a conjunction of single-column constraints — geometrically an
// axis-aligned box in the space of the constrained columns. A nil or
// empty Box is the full space (no filtering). Box values are kept
// normalized: at most one Pred per column, sorted by column reference.
type Box []Pred

// NewBox normalizes a list of predicates into a Box, intersecting
// duplicate columns.
func NewBox(preds ...Pred) Box {
	byCol := make(map[storage.ColRef]Constraint, len(preds))
	for _, p := range preds {
		if c, ok := byCol[p.Col]; ok {
			byCol[p.Col] = c.Intersect(p.Con)
		} else {
			byCol[p.Col] = p.Con
		}
	}
	out := make(Box, 0, len(byCol))
	for col, con := range byCol {
		out = append(out, Pred{Col: col, Con: con})
	}
	out.sort()
	return out
}

func (b Box) sort() {
	sort.Slice(b, func(i, j int) bool { return compareCols(b[i].Col, b[j].Col) < 0 })
}

// Constraint returns the constraint on col and whether one exists.
func (b Box) Constraint(col storage.ColRef) (Constraint, bool) {
	if c := b.ConstraintRef(col); c != nil {
		return *c, true
	}
	return Constraint{}, false
}

// ConstraintRef returns a pointer to the box's constraint on col, or nil
// — Constraint without copying it. The pointee is the box's own.
func (b Box) ConstraintRef(col storage.ColRef) *Constraint {
	for i := range b {
		if b[i].Col == col {
			return &b[i].Con
		}
	}
	return nil
}

// compareCols is the column order of normalized boxes (by table, then
// column); Intersects' merge walk relies on it.
func compareCols(a, b storage.ColRef) int {
	if c := strings.Compare(a.Table, b.Table); c != 0 {
		return c
	}
	return strings.Compare(a.Column, b.Column)
}

// Columns returns the constrained column references in canonical order.
func (b Box) Columns() []storage.ColRef {
	out := make([]storage.ColRef, len(b))
	for i, p := range b {
		out[i] = p.Col
	}
	return out
}

// Empty reports whether the box matches no tuples.
func (b Box) Empty() bool {
	for i := range b {
		if b[i].Con.isEmpty() {
			return true
		}
	}
	return false
}

// Equal reports set equality of two boxes.
func (b Box) Equal(o Box) bool {
	if b.Empty() || o.Empty() {
		return b.Empty() && o.Empty()
	}
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i].Col != o[i].Col || !b[i].Con.equal(&o[i].Con) {
			return false
		}
	}
	return true
}

// Covers reports whether b ⊇ o: every tuple satisfying o satisfies b.
// For every column b constrains, o must constrain it at least as tightly.
func (b Box) Covers(o Box) bool {
	if o.Empty() {
		return true
	}
	for i := range b {
		p := &b[i]
		oc := o.ConstraintRef(p.Col)
		if oc == nil {
			// b restricts a column o leaves free: b can only cover o if
			// b's constraint is in fact the full domain.
			if p.Con.IsFull() {
				continue
			}
			return false
		}
		if !p.Con.covers(oc) {
			return false
		}
	}
	return true
}

// Intersect returns b ∧ o.
func (b Box) Intersect(o Box) Box {
	preds := make([]Pred, 0, len(b)+len(o))
	preds = append(preds, b...)
	preds = append(preds, o...)
	return NewBox(preds...)
}

// Intersects reports whether some tuple satisfies both boxes — exactly
// !b.Intersect(o).Empty(), decided by a merge walk over the two
// normalized (column-sorted) boxes that tests each shared column's
// intersection in place instead of building the intersected box.
func (b Box) Intersects(o Box) bool {
	i, j := 0, 0
	for i < len(b) && j < len(o) {
		switch c := compareCols(b[i].Col, o[j].Col); {
		case c < 0:
			if b[i].Con.isEmpty() {
				return false
			}
			i++
		case c > 0:
			if o[j].Con.isEmpty() {
				return false
			}
			j++
		default:
			if !b[i].Con.overlaps(&o[j].Con) {
				return false
			}
			i++
			j++
		}
	}
	for ; i < len(b); i++ {
		if b[i].Con.isEmpty() {
			return false
		}
	}
	for ; j < len(o); j++ {
		if o[j].Con.isEmpty() {
			return false
		}
	}
	return true
}

// Difference returns b \ o as a list of disjoint boxes, plus whether the
// residual is expressible in the box algebra. The standard axis-sweep:
// for each column o constrains, peel off the part of the current box
// lying outside o's constraint on that column, then tighten the current
// box to o's constraint and continue. The peeled boxes are pairwise
// disjoint and their union is exactly b \ o.
//
// The only inexpressible case is negating a string IN-set on a column b
// leaves unconstrained (no finite complement exists); ok=false then, and
// the optimizer must not offer partial/overlapping reuse for that pair.
func (b Box) Difference(o Box) (pieces []Box, ok bool) {
	if b.Empty() {
		return nil, true
	}
	if o.Empty() {
		return []Box{b}, true
	}
	cur := b
	for _, op := range o {
		bc, constrained := cur.Constraint(op.Col)
		if !constrained {
			// cur is unconstrained on this column: the outside part keeps
			// cur's other constraints and negates op on this column.
			if op.Con.Kind == types.String {
				return nil, false
			}
			for _, neg := range negate(op) {
				piece := cur.withConstraint(op.Col, neg)
				if !piece.Empty() {
					pieces = append(pieces, piece)
				}
			}
		} else {
			for _, diff := range bc.Difference(op.Con) {
				piece := cur.withConstraint(op.Col, diff)
				if !piece.Empty() {
					pieces = append(pieces, piece)
				}
			}
		}
		cur = cur.withConstraint(op.Col, constraintOrFull(cur, op))
		if cur.Empty() {
			break
		}
	}
	return pieces, true
}

// negate returns the complement of a predicate's constraint as disjoint
// constraints. String-set constraints have no finite complement, so the
// residual cannot be expressed; callers detect this via nil and fall back
// to re-reading the base table without reuse (the optimizer only offers
// partial reuse when the residual is expressible).
func negate(p Pred) []Constraint {
	c := p.Con
	if c.Kind == types.String {
		return nil
	}
	full := Interval{}
	ivs := full.Difference(c.Iv)
	out := make([]Constraint, 0, len(ivs))
	for _, iv := range ivs {
		out = append(out, Constraint{Kind: c.Kind, Iv: iv})
	}
	return out
}

func constraintOrFull(b Box, op Pred) Constraint {
	if bc, ok := b.Constraint(op.Col); ok {
		return bc.Intersect(op.Con)
	}
	return op.Con
}

// withConstraint returns a copy of b with the constraint on col replaced.
func (b Box) withConstraint(col storage.ColRef, c Constraint) Box {
	out := make(Box, 0, len(b)+1)
	replaced := false
	for _, p := range b {
		if p.Col == col {
			out = append(out, Pred{Col: col, Con: c})
			replaced = true
		} else {
			out = append(out, p)
		}
	}
	if !replaced {
		out = append(out, Pred{Col: col, Con: c})
		out.sort()
	}
	return out
}

// Relation classifies a cached box (candidate) against a requested box,
// using the paper's four reuse cases.
type Relation int

const (
	// RelDisjoint: no shared tuples — the candidate is useless.
	RelDisjoint Relation = iota
	// RelEqual: exact reuse — the candidate holds exactly the needed tuples.
	RelEqual
	// RelSubsuming: the candidate holds a superset — post-filter needed.
	RelSubsuming
	// RelPartial: the candidate holds a subset — missing tuples must be added.
	RelPartial
	// RelOverlapping: proper overlap — both post-filter and additions needed.
	RelOverlapping
)

// String implements fmt.Stringer.
func (r Relation) String() string {
	switch r {
	case RelDisjoint:
		return "disjoint"
	case RelEqual:
		return "exact"
	case RelSubsuming:
		return "subsuming"
	case RelPartial:
		return "partial"
	case RelOverlapping:
		return "overlapping"
	}
	return "relation(?)"
}

// Classify relates candidate (the cached hash table's box) to request
// (the current operator's box).
func Classify(candidate, request Box) Relation {
	switch {
	case candidate.Equal(request):
		return RelEqual
	case candidate.Covers(request):
		return RelSubsuming
	case request.Covers(candidate):
		return RelPartial
	case candidate.Intersects(request):
		return RelOverlapping
	}
	return RelDisjoint
}

// Disjoint reports Classify(candidate, request) == RelDisjoint. Boxes
// that share no tuple are related by Classify only when one of them is
// empty (every box covers the empty box), so the test is the request's
// emptiness plus DisjointNonEmpty.
func Disjoint(candidate, request Box) bool {
	return !request.Empty() && DisjointNonEmpty(candidate, request)
}

// DisjointNonEmpty is Disjoint for a request known to be non-empty — the
// form a loop over many candidates uses after testing the request once.
// It takes at most two walks: the intersection merge and, for a pair
// that does not intersect, the candidate's emptiness.
func DisjointNonEmpty(candidate, request Box) bool {
	return !candidate.Intersects(request) && !candidate.Empty()
}

// String renders the box as a conjunction.
func (b Box) String() string {
	if len(b) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(b))
	for i, p := range b {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

// Key returns a canonical string for map keys (lineage comparison of the
// constrained column set is done structurally; this key includes bounds).
func (b Box) Key() string { return b.String() }

// UnionIfBox returns the union of two boxes when it is itself exactly a
// box: the boxes must agree on every column except at most one, whose
// constraints must overlap so their hull has no gap (string sets always
// merge exactly). Partial- and overlapping-reuse widen a cached table's
// lineage with this union; callers must treat ok=false as "candidate
// disqualified" — a lineage that overclaims content produces wrong
// results on later exact reuse.
func UnionIfBox(a, b Box) (Box, bool) {
	if a.Covers(b) {
		return a, true
	}
	if b.Covers(a) {
		return b, true
	}
	cols := map[storage.ColRef]bool{}
	for _, p := range a {
		cols[p.Col] = true
	}
	for _, p := range b {
		cols[p.Col] = true
	}
	var diffCol storage.ColRef
	nDiff := 0
	for col := range cols {
		ca, okA := a.Constraint(col)
		cb, okB := b.Constraint(col)
		switch {
		case okA && okB && ca.Equal(cb):
		case !okA && !okB:
		default:
			nDiff++
			diffCol = col
		}
	}
	if nDiff == 0 {
		return a, true // equal boxes
	}
	if nDiff > 1 {
		return nil, false // union of boxes differing on 2+ columns is not a box
	}
	ca, okA := a.Constraint(diffCol)
	cb, okB := b.Constraint(diffCol)
	if !okA || !okB {
		return nil, false // one side unconstrained: a hull would overclaim
	}
	hull, ok := ConstraintHull(ca, cb)
	if !ok {
		return nil, false
	}
	var preds []Pred
	for _, p := range a {
		if p.Col != diffCol {
			preds = append(preds, p)
		}
	}
	preds = append(preds, Pred{Col: diffCol, Con: hull})
	return NewBox(preds...), true
}

// ConstraintHull returns the exact union of two overlapping constraints
// on the same column, or ok=false when the hull would include a gap.
func ConstraintHull(a, b Constraint) (Constraint, bool) {
	if a.Kind != types.String && !a.Intersects(b) {
		return Constraint{}, false
	}
	return Hull(a, b), true
}

// Hull returns the smallest constraint of a's kind containing both
// constraints: the merged set for strings, the interval hull otherwise. It
// may include a gap between disjoint intervals, so outside ConstraintHull
// it is for estimation only.
func Hull(a, b Constraint) Constraint {
	if a.Kind == types.String {
		return SetConstraint(append(append([]string{}, a.Set...), b.Set...)...)
	}
	return Constraint{Kind: a.Kind, Iv: hullInterval(a.Iv, b.Iv)}
}

// hullInterval returns the smallest interval containing both inputs;
// exact as a union when the inputs intersect. At equal bounds it keeps
// the bound inclusive when either input includes it.
func hullInterval(x, y Interval) Interval {
	out := x
	if !y.HasLo {
		out.HasLo = false
	} else if out.HasLo {
		switch c := y.Lo.Compare(out.Lo); {
		case c < 0:
			out.Lo, out.LoIncl = y.Lo, y.LoIncl
		case c == 0:
			out.LoIncl = out.LoIncl || y.LoIncl
		}
	}
	if !y.HasHi {
		out.HasHi = false
	} else if out.HasHi {
		switch c := y.Hi.Compare(out.Hi); {
		case c > 0:
			out.Hi, out.HiIncl = y.Hi, y.HiIncl
		case c == 0:
			out.HiIncl = out.HiIncl || y.HiIncl
		}
	}
	return out
}
