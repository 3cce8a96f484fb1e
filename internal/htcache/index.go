package htcache

import (
	"cmp"
	"math"
	"slices"

	"hashstash/internal/expr"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Candidate lookup. The hot registry is bucketed by structural key
// (Lineage.StructKey), and each bucket indexes its entries by the
// predicate box of their *current* snapshot, so a lookup visits the
// entries that can share a tuple with the request rather than every
// entry of the shape:
//
//   - The anchor is a column the bucket's entries pin to one value (a
//     single-value interval or a one-element IN-set): the first such
//     column of the first entry that pins any, kept until the bucket
//     empties.
//   - points holds the entries whose filter pins the anchor, keyed by
//     the pinned value.
//   - residual holds every other entry — ranges, multi-value sets, an
//     unconstrained anchor, an empty box — and is always visited.
//
// A request that pins the anchor visits points[its value(s)] plus the
// residual list; any other request visits the whole bucket. Every
// visited entry is then tested with expr.Disjoint, so Candidates returns
// exactly the ready entries Classify would not call RelDisjoint. The
// index itself drops only RelDisjoint entries: two different values of
// one column never share a tuple. It is maintained wherever an entry
// enters or leaves the hot registry or changes filter (register,
// unlist, relist, PublishWidened), and slots hold *Entry pointers only.

// bucket is the hot registry's slice for one structural key.
type bucket struct {
	groupBy []storage.ColRef // the shared Lineage.GroupBy (roll-up lookup)
	all     []*Entry

	anchored  bool
	anchor    storage.ColRef
	anchorStr bool // the anchor's constraints are string IN-sets
	points    map[pointKey][]*Entry
	residual  []*Entry
}

// slot is where the index holds a hot entry: its position in its
// bucket's all list and in the point or residual list (swap-removal
// keeps both O(1)).
type slot struct {
	all   int
	at    int
	point bool
	pt    pointKey
}

// kindSig keys the buckets of one kind over one join signature.
type kindSig struct {
	kind    Kind
	joinSig string
}

// pointKey is a pinned value. Two values get the same key exactly when
// Value.Compare calls them equal: integers (and integral floats) up to
// 2^53 in magnitude share one class, other floats key by their bits,
// strings by their bytes. Values outside these classes (NaN, larger
// integers) are never keyed, so entries pinned to them stay residual.
type pointKey struct {
	s   string
	n   uint64
	cls uint8
}

const (
	clsInt uint8 = iota + 1
	clsFloat
	clsString
)

// maxExactInt bounds the integers float64 represents exactly.
const maxExactInt = 1 << 53

func valueKey(v types.Value) (pointKey, bool) {
	switch v.Kind {
	case types.Int64, types.Date:
		if v.I < -maxExactInt || v.I > maxExactInt {
			return pointKey{}, false
		}
		return pointKey{n: uint64(v.I), cls: clsInt}, true
	case types.Float64:
		f := v.F
		switch {
		case math.IsNaN(f):
			return pointKey{}, false
		case f == math.Trunc(f) && math.Abs(f) <= maxExactInt:
			return pointKey{n: uint64(int64(f)), cls: clsInt}, true
		}
		return pointKey{n: math.Float64bits(f), cls: clsFloat}, true
	}
	return pointKey{}, false
}

// intervalPoint returns the key of a closed single-value interval.
func intervalPoint(iv *expr.Interval) (pointKey, bool) {
	if !iv.HasLo || !iv.HasHi || !iv.LoIncl || !iv.HiIncl {
		return pointKey{}, false
	}
	lo, ok := valueKey(iv.Lo)
	if !ok {
		return pointKey{}, false
	}
	if hi, ok := valueKey(iv.Hi); !ok || hi != lo {
		return pointKey{}, false
	}
	return lo, true
}

// constraintPoint returns the key of a constraint pinning one value.
func constraintPoint(c *expr.Constraint) (pointKey, bool) {
	if c.Kind == types.String {
		if len(c.Set) != 1 {
			return pointKey{}, false
		}
		return pointKey{s: c.Set[0], cls: clsString}, true
	}
	return intervalPoint(&c.Iv)
}

// anchorCon returns f's constraint on the anchor when it has the
// anchor's representation (a string IN-set or an interval), else nil.
func (b *bucket) anchorCon(f expr.Box) *expr.Constraint {
	con := f.ConstraintRef(b.anchor)
	if con == nil || (con.Kind == types.String) != b.anchorStr {
		return nil
	}
	return con
}

// pointOf returns the point slot of a filter, choosing the bucket's
// anchor from it if the bucket has none yet.
func (b *bucket) pointOf(f expr.Box) (pointKey, bool) {
	if len(f) == 0 || f.Empty() {
		return pointKey{}, false
	}
	if !b.anchored {
		for i := range f {
			if pt, ok := constraintPoint(&f[i].Con); ok {
				b.anchored, b.anchor, b.anchorStr = true, f[i].Col, f[i].Con.Kind == types.String
				return pt, true
			}
		}
		return pointKey{}, false
	}
	if con := b.anchorCon(f); con != nil {
		return constraintPoint(con)
	}
	return pointKey{}, false
}

// add lists e in the bucket under its current filter.
func (b *bucket) add(e *Entry) {
	e.slot.all = len(b.all)
	b.all = append(b.all, e)
	b.place(e)
}

// remove takes e out of the bucket.
func (b *bucket) remove(e *Entry) {
	b.unplace(e)
	last := b.all[len(b.all)-1]
	b.all[e.slot.all] = last
	last.slot.all = e.slot.all
	b.all[len(b.all)-1] = nil
	b.all = b.all[:len(b.all)-1]
}

// place puts e in the point or residual slot for its current filter.
func (b *bucket) place(e *Entry) {
	pt, ok := b.pointOf(e.cur.Load().Filter)
	if !ok {
		e.slot.point, e.slot.pt, e.slot.at = false, pointKey{}, len(b.residual)
		b.residual = append(b.residual, e)
		return
	}
	if b.points == nil {
		b.points = make(map[pointKey][]*Entry)
	}
	list := b.points[pt]
	e.slot.point, e.slot.pt, e.slot.at = true, pt, len(list)
	b.points[pt] = append(list, e)
}

// unplace takes e out of its point or residual slot.
func (b *bucket) unplace(e *Entry) {
	if !e.slot.point {
		b.residual = swapRemove(b.residual, e.slot.at)
		return
	}
	if list := swapRemove(b.points[e.slot.pt], e.slot.at); len(list) > 0 {
		b.points[e.slot.pt] = list
	} else {
		delete(b.points, e.slot.pt)
	}
}

// swapRemove deletes list[i] by moving the last element into its place.
func swapRemove(list []*Entry, i int) []*Entry {
	last := list[len(list)-1]
	list[i] = last
	last.slot.at = i
	list[len(list)-1] = nil
	return list[:len(list)-1]
}

// appendCandidates appends the bucket's ready entries that are not
// provably disjoint from req.
func (b *bucket) appendCandidates(out []*Entry, req expr.Box) []*Entry {
	if len(req) == 0 || req.Empty() {
		return appendReady(out, b.all, nil) // Classify never calls these disjoint
	}
	out, pinned := b.appendPinned(out, req)
	if pinned {
		return appendReady(out, b.residual, req)
	}
	return appendReady(out, b.all, req)
}

// appendPinned appends the point entries matching req's constraint on
// the anchor and reports whether that constraint selects points at all;
// when it does not, the caller must visit the whole bucket.
func (b *bucket) appendPinned(out []*Entry, req expr.Box) ([]*Entry, bool) {
	if !b.anchored {
		return out, false
	}
	con := b.anchorCon(req)
	if con == nil {
		return out, false
	}
	if con.Kind != types.String {
		pt, ok := intervalPoint(&con.Iv)
		if !ok {
			return out, false
		}
		return appendReady(out, b.points[pt], req), true
	}
	for _, s := range con.Set { // deduplicated by SetConstraint
		out = appendReady(out, b.points[pointKey{s: s, cls: clsString}], req)
	}
	return out, true
}

// appendReady appends the ready entries of list not disjoint from req
// (all ready entries when req is nil).
func appendReady(out, list []*Entry, req expr.Box) []*Entry {
	for _, e := range list {
		if e.ready && (req == nil || !expr.Disjoint(e.cur.Load().Filter, req)) {
			out = append(out, e)
		}
	}
	return out
}

// sortMRU orders entries most recently used first (LastUsed values are
// distinct clock ticks, so the order is total).
func sortMRU(es []*Entry) {
	slices.SortFunc(es, func(a, b *Entry) int { return cmp.Compare(b.LastUsed, a.LastUsed) })
}

// indexLocked lists a hot entry in its bucket.
func (c *Cache) indexLocked(e *Entry) {
	b := c.byStruct[e.key]
	if b == nil {
		b = &bucket{groupBy: e.Lineage.GroupBy}
		c.byStruct[e.key] = b
		ks := kindSig{e.Lineage.Kind, e.Lineage.JoinSig}
		c.byKind[ks] = append(c.byKind[ks], b)
	}
	b.add(e)
}

// unindexLocked removes a hot entry from its bucket, dropping the
// bucket (and its anchor) once empty.
func (c *Cache) unindexLocked(e *Entry) {
	b := c.byStruct[e.key]
	b.remove(e)
	if len(b.all) > 0 {
		return
	}
	delete(c.byStruct, e.key)
	ks := kindSig{e.Lineage.Kind, e.Lineage.JoinSig}
	list := c.byKind[ks]
	i := slices.Index(list, b)
	list[i] = list[len(list)-1]
	list[len(list)-1] = nil
	if list = list[:len(list)-1]; len(list) > 0 {
		c.byKind[ks] = list
	} else {
		delete(c.byKind, ks)
	}
}

// Candidates returns the published entries whose structure matches the
// lineage probe (kind, join signature, key columns, group-by) and that
// are not provably disjoint from the request box probe.Filter, most
// recently used first. A nil or empty request returns the whole bucket.
// Classification into the reuse cases stays the caller's job — against
// a snapshot resolved once via Current.
func (c *Cache) Candidates(probe Lineage) []*Entry {
	key := probe.StructKey()
	c.mu.RLock()
	defer c.mu.RUnlock()
	b := c.byStruct[key]
	if b == nil {
		return nil
	}
	out := b.appendCandidates(nil, probe.Filter)
	sortMRU(out)
	return out
}

// RollupCandidates returns the published entries of probe's kind and
// join signature whose GroupBy strictly contains probe.GroupBy — the
// aggregate roll-up extension, where a cached table grouped by more
// columns folds down to the request — and that are not provably
// disjoint from probe.Filter, most recently used first. Only buckets
// with such a GroupBy are visited.
func (c *Cache) RollupCandidates(probe Lineage) []*Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Entry
	for _, b := range c.byKind[kindSig{probe.Kind, probe.JoinSig}] {
		if len(b.groupBy) > len(probe.GroupBy) && refsSubset(probe.GroupBy, b.groupBy) {
			out = b.appendCandidates(out, probe.Filter)
		}
	}
	sortMRU(out)
	return out
}

// refsSubset reports a ⊆ b.
func refsSubset(a, b []storage.ColRef) bool {
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}
