// Package workload generates the analytical query workloads of the
// paper's evaluation (Section 6): sequences of 64 SPJ/SPJA queries over
// the TPC-H schema derived from a seed query (TPC-H Q3's 3-way join
// with aggregation) by simulated user interactions — zoom-in, zoom-out,
// shift, drill-down (adding PART/SUPPLIER joins and group-by columns)
// and roll-up. The reuse level controls the average overlap of the data
// read by consecutive queries: 1% (low), 10% (medium), 50% (high).
package workload

import (
	"fmt"
	"strings"

	"hashstash/internal/expr"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/tpch"
	"hashstash/internal/types"
)

// Level is the reuse potential of a workload.
type Level uint8

// Reuse levels with their consecutive-query overlap targets.
const (
	Low    Level = iota // ~1% overlap: users jump across the data
	Medium              // ~10% overlap
	High                // ~50% overlap: focused exploration
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	}
	return "level(?)"
}

// Overlap returns the target overlap fraction between the date windows
// of consecutive queries.
func (l Level) Overlap() float64 {
	switch l {
	case Low:
		return 0.01
	case Medium:
		return 0.10
	default:
		return 0.50
	}
}

// Interaction labels the user action deriving one query from its
// predecessor.
type Interaction uint8

// The interactions of Section 6.1.
const (
	Seed Interaction = iota
	ZoomIn
	ZoomOut
	ShiftMuch
	ShiftLess
	DrillDown
	RollUp
)

// String implements fmt.Stringer.
func (i Interaction) String() string {
	switch i {
	case Seed:
		return "seed"
	case ZoomIn:
		return "zoom-in"
	case ZoomOut:
		return "zoom-out"
	case ShiftMuch:
		return "shift-much"
	case ShiftLess:
		return "shift-less"
	case DrillDown:
		return "drill-down"
	case RollUp:
		return "roll-up"
	}
	return "interaction(?)"
}

// Step is one query of a workload.
type Step struct {
	Query *plan.Query
	Kind  Interaction
	// Window is the l_shipdate predicate window [Lo, Hi).
	Lo, Hi int64
	// Shape identifies the recurring query shape a skewed workload drew
	// (see GenerateSkewed); -1 for one-shot queries and for every step of
	// the classic interaction-driven Generate.
	Shape int
}

// Config controls workload generation.
type Config struct {
	Level Level
	// N is the number of queries (the paper uses 64).
	N int
	// Seed makes generation deterministic; 0 selects a default.
	Seed uint64
}

// rng is the same splitmix stream the TPC-H generator uses.
type rng struct{ state uint64 }

func (r *rng) next() uint64 { r.state += 0x9e3779b97f4a7c15; return types.Mix64(r.state) }
func (r *rng) float() float64 {
	return float64(r.next()>>11) / (1 << 53)
}
func (r *rng) intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.next() % uint64(n))
}

func ref(a, c string) storage.ColRef { return storage.ColRef{Table: a, Column: c} }

// state tracks the evolving query shape during generation. Sessions
// move through TWO correlated filter dimensions — the l_shipdate window
// and a c_age window — so that at low overlap nothing (not even the
// customer-side hash tables) is trivially reusable, matching the
// paper's "users look at different parts of the data set".
type state struct {
	lo, hi   int64
	ageLo    int64
	ageHi    int64
	hasPart  bool
	hasSupp  bool
	groupBy  []storage.ColRef
	baseLo   int64
	baseHi   int64
	minWidth int64
	maxWidth int64
}

// Generate produces a workload of cfg.N queries.
func Generate(cfg Config) []Step {
	if cfg.N <= 0 {
		cfg.N = 64
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x574b4c44 // "WKLD"
	}
	r := &rng{state: seed ^ uint64(cfg.Level)<<32}

	dlo, dhi := tpch.OrderDateRange()
	// Shipdates extend up to 121 days past the last order date.
	shipLo, shipHi := dlo+1, dhi+121
	span := shipHi - shipLo

	st := &state{
		baseLo:   shipLo,
		baseHi:   shipHi,
		minWidth: span / 40,
		maxWidth: span / 4,
		groupBy:  []storage.ColRef{ref("c", "c_age")},
	}
	st.lo = shipLo + r.intn(span/2)
	st.hi = st.lo + st.minWidth*4
	st.ageLo = 18 + r.intn(40)
	st.ageHi = st.ageLo + 20

	steps := make([]Step, 0, cfg.N)
	steps = append(steps, Step{Query: st.query(), Kind: Seed, Lo: st.lo, Hi: st.hi, Shape: -1})
	for len(steps) < cfg.N {
		kind := pickInteraction(r, st, cfg.Level)
		st.apply(r, kind, cfg.Level.Overlap())
		steps = append(steps, Step{Query: st.query(), Kind: kind, Lo: st.lo, Hi: st.hi, Shape: -1})
	}
	return steps
}

// pickInteraction draws the next user action. The mix depends on the
// reuse level, matching the paper's characterization: low-reuse users
// jump across the data set (shift-much re-randomizes every filter
// dimension), while medium/high-reuse users explore a common region
// with nested zooms and small shifts before changing focus.
func pickInteraction(r *rng, st *state, level Level) Interaction {
	var jumpP, zoomInP, zoomOutP, shiftLessP, drillP float64
	switch level {
	case Low:
		jumpP, zoomInP, zoomOutP, shiftLessP, drillP = 0.80, 0.03, 0.03, 0.06, 0.06
	case Medium:
		jumpP, zoomInP, zoomOutP, shiftLessP, drillP = 0.42, 0.14, 0.14, 0.20, 0.07
	default: // High
		jumpP, zoomInP, zoomOutP, shiftLessP, drillP = 0.10, 0.28, 0.28, 0.22, 0.08
	}
	p := r.float()
	switch {
	case p < jumpP:
		return ShiftMuch
	case p < jumpP+zoomInP:
		return ZoomIn
	case p < jumpP+zoomInP+zoomOutP:
		return ZoomOut
	case p < jumpP+zoomInP+zoomOutP+shiftLessP:
		return ShiftLess
	case p < jumpP+zoomInP+zoomOutP+shiftLessP+drillP:
		if st.hasPart && st.hasSupp {
			return RollUp
		}
		return DrillDown
	default:
		if len(st.groupBy) > 1 || st.hasPart || st.hasSupp {
			return RollUp
		}
		return ZoomOut
	}
}

// apply mutates the state.
//
//   - ZoomIn narrows the c_age window (nested): the cached aggregate
//     subsumes the request and c_age is a group-by column, so the
//     rewrite post-filters cached groups.
//   - ZoomOut widens the date window (nested superset): partial reuse
//     folds only the missing date range into the cached aggregate.
//   - ShiftLess moves the date window keeping the level's target
//     overlap (overlapping-reuse territory for join tables).
//   - ShiftMuch is a focus jump: the date window keeps only ~target/4
//     overlap and the age window is re-randomized — in low-reuse
//     workloads (mostly jumps) nothing stays reusable.
//   - DrillDown/RollUp change the join graph and group-by keys.
func (st *state) apply(r *rng, kind Interaction, overlap float64) {
	const ageDomainLo, ageDomainHi, ageW = 18, 92, 20
	switch kind {
	case ZoomIn:
		w := st.ageHi - st.ageLo
		newW := int64(float64(w) * clampF(overlap*1.2, 0.15, 0.8))
		if newW < 4 {
			newW = 4
		}
		if newW >= w {
			return // cannot narrow further: behaves like a repeat
		}
		off := r.intn(w - newW + 1)
		st.ageLo += off
		st.ageHi = st.ageLo + newW

	case ZoomOut:
		width := st.hi - st.lo
		newW := int64(float64(width) / clampF(overlap*1.5, 0.2, 0.9))
		if newW > st.maxWidth {
			newW = st.maxWidth
		}
		if newW <= width {
			return
		}
		grow := newW - width
		left := r.intn(grow + 1)
		lo := st.lo - left
		if lo < st.baseLo {
			lo = st.baseLo
		}
		hi := lo + newW
		if hi > st.baseHi {
			hi = st.baseHi
			lo = hi - newW
		}
		st.lo, st.hi = lo, hi

	case ShiftLess, ShiftMuch:
		width := st.hi - st.lo
		target := overlap
		if kind == ShiftMuch {
			target = overlap / 4
		}
		target *= 0.7 + 0.6*r.float()
		inter := int64(target * float64(width))
		if inter > width {
			inter = width
		}
		place := func(right bool) (int64, bool) {
			var lo int64
			if right {
				lo = st.hi - inter
			} else {
				lo = st.lo + inter - width
			}
			if lo < st.baseLo || lo+width > st.baseHi {
				return 0, false
			}
			return lo, true
		}
		right := r.float() < 0.5
		lo, ok := place(right)
		if !ok {
			lo, ok = place(!right)
		}
		if !ok {
			lo = st.baseLo + r.intn(st.baseHi-st.baseLo-width+1)
		}
		st.lo, st.hi = lo, lo+width
		if kind == ShiftMuch {
			// Focus jump: the demographic window moves too.
			st.ageLo = ageDomainLo + r.intn(ageDomainHi-ageDomainLo-ageW)
			st.ageHi = st.ageLo + ageW
		}

	case DrillDown:
		if !st.hasPart {
			st.hasPart = true
			st.groupBy = append(st.groupBy, ref("p", "p_mfgr"))
		} else if !st.hasSupp {
			st.hasSupp = true
			st.groupBy = append(st.groupBy, ref("s", "s_nationkey"))
		}
	case RollUp:
		if st.hasSupp {
			st.hasSupp = false
			st.groupBy = dropRef(st.groupBy, ref("s", "s_nationkey"))
		} else if st.hasPart {
			st.hasPart = false
			st.groupBy = dropRef(st.groupBy, ref("p", "p_mfgr"))
		} else if len(st.groupBy) > 1 {
			st.groupBy = st.groupBy[:len(st.groupBy)-1]
		}
	}
}

func dropRef(refs []storage.ColRef, r storage.ColRef) []storage.ColRef {
	out := refs[:0]
	for _, x := range refs {
		if x != r {
			out = append(out, x)
		}
	}
	return out
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// query materializes the current state as a logical query.
func (st *state) query() *plan.Query {
	q := &plan.Query{
		Relations: []plan.Rel{
			{Alias: "c", Table: "customer"},
			{Alias: "o", Table: "orders"},
			{Alias: "l", Table: "lineitem"},
		},
		Joins: []plan.JoinPred{
			{Left: ref("c", "c_custkey"), Right: ref("o", "o_custkey")},
			{Left: ref("o", "o_orderkey"), Right: ref("l", "l_orderkey")},
		},
	}
	if st.hasPart {
		q.Relations = append(q.Relations, plan.Rel{Alias: "p", Table: "part"})
		q.Joins = append(q.Joins, plan.JoinPred{Left: ref("l", "l_partkey"), Right: ref("p", "p_partkey")})
	}
	if st.hasSupp {
		q.Relations = append(q.Relations, plan.Rel{Alias: "s", Table: "supplier"})
		q.Joins = append(q.Joins, plan.JoinPred{Left: ref("l", "l_suppkey"), Right: ref("s", "s_suppkey")})
	}
	q.Filter = expr.NewBox(
		expr.Pred{
			Col: ref("l", "l_shipdate"),
			Con: expr.IntervalConstraint(types.Date, expr.Interval{
				HasLo: true, Lo: types.NewDate(st.lo), LoIncl: true,
				HasHi: true, Hi: types.NewDate(st.hi), HiIncl: false,
			}),
		},
		expr.Pred{
			Col: ref("c", "c_age"),
			Con: expr.IntervalConstraint(types.Int64, expr.Interval{
				HasLo: true, Lo: types.NewInt(st.ageLo), LoIncl: true,
				HasHi: true, Hi: types.NewInt(st.ageHi), HiIncl: true,
			}),
		},
	)
	q.GroupBy = append([]storage.ColRef{}, st.groupBy...)
	q.Select = append([]storage.ColRef{}, st.groupBy...)
	q.Aggs = []expr.AggSpec{
		{Func: expr.AggSum, Arg: &expr.Bin{
			Op: expr.OpMul,
			L:  &expr.Col{Ref: ref("l", "l_extendedprice")},
			R: &expr.Bin{Op: expr.OpSub,
				L: &expr.Const{V: types.NewFloat(1)},
				R: &expr.Col{Ref: ref("l", "l_discount")}},
		}, Alias: "revenue"},
		{Func: expr.AggCount, Alias: "n"},
	}
	return q
}

// SQL renders the step's query as SQL text that the engine's parser
// reads back to the same logical query: the select list, every join and
// filter predicate, GROUP BY when the query groups, ORDER BY and LIMIT.
func (s Step) SQL() string {
	q := s.Query
	var items []string
	for _, c := range q.Select {
		items = append(items, c.String())
	}
	for _, a := range q.Aggs {
		items = append(items, a.String())
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(strings.Join(items, ", "))
	rels := make([]string, len(q.Relations))
	for i, r := range q.Relations {
		rels[i] = r.Table + " " + r.Alias
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(rels, ", "))
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, j.String())
	}
	for _, p := range q.Filter {
		conds = append(conds, predSQL(p)...)
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if len(q.GroupBy) > 0 {
		cols := make([]string, len(q.GroupBy))
		for i, c := range q.GroupBy {
			cols[i] = c.String()
		}
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(cols, ", "))
	}
	if q.OrderBy != nil {
		b.WriteString(" ORDER BY ")
		b.WriteString(q.OrderBy.Col.String())
		if q.OrderBy.Desc {
			b.WriteString(" DESC")
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

// predSQL renders one box predicate as its conjuncts. A full interval
// constrains nothing and renders as none; an empty string set, which no
// IN-list can state, renders as two one-value lists whose intersection
// is empty.
func predSQL(p expr.Pred) []string {
	col := p.Col.String()
	if p.Con.Kind == types.String {
		if len(p.Con.Set) == 0 {
			return []string{col + " = 'a'", col + " = 'b'"}
		}
		quoted := make([]string, len(p.Con.Set))
		for i, s := range p.Con.Set {
			quoted[i] = "'" + strings.ReplaceAll(s, "'", "''") + "'"
		}
		return []string{col + " IN (" + strings.Join(quoted, ", ") + ")"}
	}
	iv := p.Con.Iv
	if iv.HasLo && iv.HasHi && iv.LoIncl && iv.HiIncl && iv.Lo.Equal(iv.Hi) {
		return []string{col + " = " + literalSQL(iv.Lo)}
	}
	var out []string
	if iv.HasLo {
		op := " > "
		if iv.LoIncl {
			op = " >= "
		}
		out = append(out, col+op+literalSQL(iv.Lo))
	}
	if iv.HasHi {
		op := " < "
		if iv.HiIncl {
			op = " <= "
		}
		out = append(out, col+op+literalSQL(iv.Hi))
	}
	return out
}

func literalSQL(v types.Value) string {
	if v.Kind == types.Date {
		return "DATE '" + v.String() + "'"
	}
	return v.String()
}

// MeasureOverlap reports the average window-overlap fraction between
// consecutive steps (validation metric for the level targets).
func MeasureOverlap(steps []Step) float64 {
	if len(steps) < 2 {
		return 0
	}
	total := 0.0
	for i := 1; i < len(steps); i++ {
		a, b := steps[i-1], steps[i]
		lo := a.Lo
		if b.Lo > lo {
			lo = b.Lo
		}
		hi := a.Hi
		if b.Hi < hi {
			hi = b.Hi
		}
		inter := float64(hi - lo)
		if inter < 0 {
			inter = 0
		}
		width := float64(b.Hi - b.Lo)
		if prev := float64(a.Hi - a.Lo); prev > width {
			width = prev
		}
		if width > 0 {
			total += inter / width
		}
	}
	return total / float64(len(steps)-1)
}
