// Package btree implements the ordered secondary-index structure of
// HashStash: a cache-friendly, immutable B+tree over one typed
// base-table column, bulk-loaded from a sorted permutation of the
// column's rows.
//
// The layout is a static multi-level index over flat arrays rather than
// a pointer-chased node tree: the leaf level is the column's keys
// gathered into permutation order (one contiguous typed array), and
// each internal level stores the minimum key of every fanout-sized
// block of the level below. A range lookup descends the levels — one
// node-local binary search per level, each node a contiguous cache-line
// run — and resolves to a position range [lo, hi) whose row ids are the
// contiguous slice Perm()[lo:hi]. String columns are
// dictionary-encoded: the unique sorted values plus the start offset of
// each value's run, so equality/IN-set lookups binary-search the
// dictionary and return whole runs without touching per-row data.
//
// Trees never mutate after Build: like the cached hash tables they sit
// next to in the htcache registry, they are published as immutable
// snapshots, shared lock-free by concurrent queries, and invalidated
// wholesale when the base table changes.
package btree

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"hashstash/internal/expr"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Fanout is the block size of the internal levels: 64 int64 separators
// are 512 bytes, a handful of cache lines scanned with one node-local
// binary search per level.
const Fanout = 64

// Stats are the tree's cumulative access counters, updated atomically
// by index scans and folded into htcache.Stats.
type Stats struct {
	RangeProbes  int64 // constraint resolutions (descents)
	RowsGathered int64 // row ids materialized through the permutation
}

// Tree is an immutable secondary index over one column.
type Tree struct {
	kind types.Kind
	perm []int32 // row ids in key order

	// Numeric/date leaf keys in perm order, plus internal separator
	// levels (levels[0] is directly above the leaves).
	ints      []int64
	intLevels [][]int64

	floats      []float64
	floatLevels [][]float64

	// String dictionary: unique values ascending and the start position
	// of each value's run in perm (strStarts has len(strVals)+1 entries;
	// run i is perm[strStarts[i]:strStarts[i+1]]).
	strVals   []string
	strStarts []int32

	probes   atomic.Int64
	gathered atomic.Int64
}

// Build bulk-loads a tree from the column: one stable sort producing
// the permutation (storage.SortedPerm), one gather of the keys into
// leaf order, then the internal levels bottom-up. Float columns
// containing NaN are rejected: the range descent compares keys with
// Go's operators, under which NaN is unordered.
func Build(col *storage.Column) (*Tree, error) {
	t := &Tree{kind: col.Kind}
	switch col.Kind {
	case types.Float64:
		for _, v := range col.Floats {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("btree: column %q contains NaN", col.Name)
			}
		}
	case types.Int64, types.Date, types.String:
	default:
		return nil, fmt.Errorf("btree: unsupported column kind %v", col.Kind)
	}
	t.perm = storage.SortedPerm(col)
	t.gather(col)
	return t, nil
}

// gather materializes the leaf keys (and internal levels) from the
// column through the already-computed permutation. Shared by Build and
// by cold-tier revival, where the permutation survives spilling and the
// n·log n sort is skipped.
func (t *Tree) gather(col *storage.Column) {
	switch col.Kind {
	case types.Int64, types.Date:
		t.ints = make([]int64, len(t.perm))
		for i, r := range t.perm {
			t.ints[i] = col.Ints[r]
		}
		t.intLevels = buildLevels(t.ints)
	case types.Float64:
		t.floats = make([]float64, len(t.perm))
		for i, r := range t.perm {
			t.floats[i] = col.Floats[r]
		}
		t.floatLevels = buildLevels(t.floats)
	case types.String:
		// The permutation orders rows by their strings, so each run of
		// equal codes is one value.
		for i, r := range t.perm {
			if code := col.Strs[r]; i == 0 || code != col.Strs[t.perm[i-1]] {
				t.strVals = append(t.strVals, col.Dict.At(code))
				t.strStarts = append(t.strStarts, int32(i))
			}
		}
		t.strStarts = append(t.strStarts, int32(len(t.perm)))
	}
}

// buildLevels constructs the internal separator levels: level k entry j
// is the minimum key of block j of level k-1 (the leaves for k == 0).
// Levels stop once a level fits in one node.
func buildLevels[K int64 | float64](leaf []K) [][]K {
	var levels [][]K
	cur := leaf
	for len(cur) > Fanout {
		next := make([]K, (len(cur)+Fanout-1)/Fanout)
		for j := range next {
			next[j] = cur[j*Fanout]
		}
		levels = append(levels, next)
		cur = next
	}
	return levels
}

// lowerBound returns the first leaf position whose key is >= v (orEq)
// or > v (!orEq), descending the separator levels top-down. Each level
// narrows the search to one fanout-sized node: a separator is the
// minimum of its block, so the answer lies in the block of the last
// separator below the bound — or at that block's end, which is exactly
// the next block's start.
func lowerBound[K int64 | float64](levels [][]K, leaf []K, v K, orEq bool) int {
	above := func(e K) bool {
		if orEq {
			return e >= v
		}
		return e > v
	}
	node := 0 // block index into the next level down
	for l := len(levels) - 1; l >= 0; l-- {
		cur := levels[l]
		start, end := node*Fanout, node*Fanout+Fanout
		if l == len(levels)-1 {
			start, end = 0, len(cur)
		} else if end > len(cur) {
			end = len(cur)
		}
		i := start + sort.Search(end-start, func(k int) bool { return above(cur[start+k]) })
		node = i - 1
		if node < start {
			node = start
		}
	}
	start, end := node*Fanout, node*Fanout+Fanout
	if len(levels) == 0 {
		start, end = 0, len(leaf)
	} else if end > len(leaf) {
		end = len(leaf)
	}
	return start + sort.Search(end-start, func(k int) bool { return above(leaf[start+k]) })
}

// Len reports the number of indexed rows.
func (t *Tree) Len() int { return len(t.perm) }

// Kind reports the indexed column's kind.
func (t *Tree) Kind() types.Kind { return t.kind }

// Height reports the number of levels (leaf included); the descent cost
// the cost model charges per range probe.
func (t *Tree) Height() int {
	switch t.kind {
	case types.Int64, types.Date:
		return len(t.intLevels) + 1
	case types.Float64:
		return len(t.floatLevels) + 1
	case types.String:
		return 1 // dictionary binary search
	}
	return 1
}

// EstimateHeight predicts Height for a tree over n rows (for costing an
// index that does not exist yet).
func EstimateHeight(n int) int {
	h := 1
	for n > Fanout {
		n = (n + Fanout - 1) / Fanout
		h++
	}
	return h
}

// Perm returns the row-id permutation (key order). Callers must not
// modify it; range results are sub-slices of it.
func (t *Tree) Perm() []int32 { return t.perm }

// ByteSize estimates the tree's memory footprint.
func (t *Tree) ByteSize() int64 {
	total := int64(len(t.perm)) * 4
	total += int64(len(t.ints)) * 8
	for _, l := range t.intLevels {
		total += int64(len(l)) * 8
	}
	total += int64(len(t.floats)) * 8
	for _, l := range t.floatLevels {
		total += int64(len(l)) * 8
	}
	for _, s := range t.strVals {
		total += int64(len(s)) + 16
	}
	total += int64(len(t.strStarts)) * 4
	return total
}

// EstimateBytes predicts ByteSize for an index over n rows of a numeric
// column (keys + permutation + separators); the build-budget check uses
// it before the tree exists.
func EstimateBytes(n int) int64 { return int64(n) * 13 }

// Range resolves an interval to the leaf position range [lo, hi):
// every row id in Perm()[lo:hi] — and no other — has its column value
// inside the interval. Valid for numeric and date trees.
func (t *Tree) Range(iv expr.Interval) (lo, hi int) {
	n := len(t.perm)
	if iv.Empty() {
		return 0, 0
	}
	switch t.kind {
	case types.Int64, types.Date:
		lo, hi = 0, n
		if iv.HasLo {
			lo = lowerBound(t.intLevels, t.ints, iv.Lo.AsInt(), iv.LoIncl)
		}
		if iv.HasHi {
			hi = lowerBound(t.intLevels, t.ints, iv.Hi.AsInt(), !iv.HiIncl)
		}
	case types.Float64:
		lo, hi = 0, n
		if iv.HasLo {
			lo = lowerBound(t.floatLevels, t.floats, iv.Lo.AsFloat(), iv.LoIncl)
		}
		if iv.HasHi {
			hi = lowerBound(t.floatLevels, t.floats, iv.Hi.AsFloat(), !iv.HiIncl)
		}
	default:
		return 0, 0
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// ValueRun resolves one string value to its leaf run [lo, hi) via the
// dictionary (empty when absent).
func (t *Tree) ValueRun(s string) (lo, hi int) {
	i := sort.SearchStrings(t.strVals, s)
	if i >= len(t.strVals) || t.strVals[i] != s {
		return 0, 0
	}
	return int(t.strStarts[i]), int(t.strStarts[i+1])
}

// ConstraintRuns resolves a constraint of the tree's kind into leaf
// runs, in key order: one run for intervals, one per present value for
// string sets. Empty constraints yield no runs.
func (t *Tree) ConstraintRuns(con expr.Constraint) [][2]int32 {
	t.probes.Add(1)
	if t.kind == types.String {
		var runs [][2]int32
		for _, s := range con.Set {
			if lo, hi := t.ValueRun(s); hi > lo {
				runs = append(runs, [2]int32{int32(lo), int32(hi)})
			}
		}
		return runs
	}
	lo, hi := t.Range(con.Iv)
	if hi <= lo {
		return nil
	}
	return [][2]int32{{int32(lo), int32(hi)}}
}

// NoteGathered counts row ids materialized through the permutation
// (index-scan workers call it per batch).
func (t *Tree) NoteGathered(rows int64) { t.gathered.Add(rows) }

// Stats returns the cumulative access counters.
func (t *Tree) Stats() Stats {
	return Stats{RangeProbes: t.probes.Load(), RowsGathered: t.gathered.Load()}
}
