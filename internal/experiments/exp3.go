package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hashstash/internal/btree"
	"hashstash/internal/costmodel"
	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
	"hashstash/internal/workload"
)

// rhaBench is the synthetic aggregation setup of Experiment 2c: an
// input relation with a controlled number of groups and a cached
// aggregation table holding a contribution-ratio-controlled prefix.
type rhaBench struct {
	input  *storage.Table // seq, key (group), val
	seqIdx *btree.Tree    // over input.seq: scans read only the rows they fold
	n      int
	groups int
}

func newRHABench(n, groups int) (*rhaBench, error) {
	seq := storage.NewColumn("seq", types.Int64)
	key := storage.NewColumn("key", types.Int64)
	val := storage.NewColumn("val", types.Float64)
	for i := 0; i < n; i++ {
		seq.Ints = append(seq.Ints, int64(i))
		key.Ints = append(key.Ints, int64(i%groups))
		val.Floats = append(val.Floats, float64(i%97))
	}
	seqIdx, err := btree.Build(seq)
	if err != nil {
		return nil, err
	}
	t := storage.NewTable("bench_agg", seq, key, val)
	return &rhaBench{input: t, seqIdx: seqIdx, n: n, groups: groups}, nil
}

// seqScan reads the key and val of the input rows whose seq lies in iv.
func (rb *rhaBench) seqScan(iv expr.Interval) (*exec.TableScan, error) {
	return exec.NewIndexScan(rb.input, "a", rb.seqIdx, expr.IntervalConstraint(types.Int64, iv), nil, []string{"key", "val"})
}

func (rb *rhaBench) layout() hashtable.Layout {
	return hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "a", Column: "key"}, Kind: types.Int64},
			{Ref: storage.ColRef{Column: "sum"}, Kind: types.Float64},
			{Ref: storage.ColRef{Column: "cnt"}, Kind: types.Int64},
		},
		KeyCols: 1,
	}
}

// aggregate folds input rows with seq >= from into the table.
func (rb *rhaBench) aggregate(ht *hashtable.Table, from int64) error {
	src, err := rb.seqScan(expr.Interval{HasLo: true, Lo: types.NewInt(from), LoIncl: true})
	if err != nil {
		return err
	}
	schema := src.Schema()
	sink, err := exec.NewAggHT(ht,
		[]storage.ColRef{{Table: "a", Column: "key"}},
		[]exec.AggCell{
			{Func: expr.AggSum, InCol: schema.MustIndexOf(storage.ColRef{Table: "a", Column: "val"}), Kind: types.Float64},
			{Func: expr.AggCount, InCol: -1, Kind: types.Int64},
		}, schema)
	if err != nil {
		return err
	}
	if err := (&exec.Pipeline{Source: src, Sink: sink}).Run(); err != nil {
		return err
	}
	// Read the result out (part of the operator's cost).
	scan, err := exec.NewHTScan(ht, []int{0, 1, 2}, nil, nil)
	if err != nil {
		return err
	}
	return (&exec.Pipeline{Source: scan, Sink: &countSink{}}).Run()
}

// cached builds the cached aggregation table covering the first
// contr fraction of the input.
func (rb *rhaBench) cached(contr float64) (*hashtable.Table, int64, error) {
	ht := hashtable.New(rb.layout())
	upto := int64(contr * float64(rb.n))
	src, err := rb.seqScan(expr.Interval{HasHi: true, Hi: types.NewInt(upto)})
	if err != nil {
		return nil, 0, err
	}
	schema := src.Schema()
	sink, err := exec.NewAggHT(ht,
		[]storage.ColRef{{Table: "a", Column: "key"}},
		[]exec.AggCell{
			{Func: expr.AggSum, InCol: schema.MustIndexOf(storage.ColRef{Table: "a", Column: "val"}), Kind: types.Float64},
			{Func: expr.AggCount, InCol: -1, Kind: types.Int64},
		}, schema)
	if err != nil {
		return nil, 0, err
	}
	if err := (&exec.Pipeline{Source: src, Sink: sink}).Run(); err != nil {
		return nil, 0, err
	}
	return ht, upto, nil
}

// Exp2c sweeps the contribution ratio for the reuse-aware hash
// aggregate (Figure 9b).
func Exp2c(rows, groups int) (*OperatorSweepResult, error) {
	rb, err := newRHABench(rows, groups)
	if err != nil {
		return nil, err
	}
	m := costmodel.NewModel(nil)
	out := &OperatorSweepResult{Name: fmt.Sprintf("Experiment 2c — RHA operator-level reuse (%d rows, %d groups)", rows, groups)}

	freshCost := m.RHA(costmodel.RHAInput{
		InputRows: float64(rows), DistinctKeys: float64(groups), TupleWidth: 24,
	}) + m.ScanCost(float64(rows), 16)

	for pct := 100; pct >= 0; pct -= 10 {
		contr := float64(pct) / 100
		p := OperatorSweepPoint{Contr: contr}

		// Always: reuse the cached table, folding in the missing rows.
		ht, from, err := rb.cached(contr)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := rb.aggregate(ht, from); err != nil {
			return nil, err
		}
		p.AlwaysTime = time.Since(t0)

		// Never: aggregate everything fresh.
		t0 = time.Now()
		if err := rb.aggregate(hashtable.New(rb.layout()), 0); err != nil {
			return nil, err
		}
		p.NeverTime = time.Since(t0)

		// Cost model picks the cheaper side and executes it.
		reuseCost := m.RHA(costmodel.RHAInput{
			InputRows: float64(rows), DistinctKeys: float64(groups),
			Contr: contr, Overh: 0, CandRows: float64(groups), TupleWidth: 24,
		}) + m.ScanCost((1-contr)*float64(rows), 16)
		if reuseCost <= freshCost {
			p.CostPicksReuse = true
			ht2, from2, err := rb.cached(contr)
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			if err := rb.aggregate(ht2, from2); err != nil {
				return nil, err
			}
			p.CostTime = time.Since(t0)
		} else {
			t0 = time.Now()
			if err := rb.aggregate(hashtable.New(rb.layout()), 0); err != nil {
				return nil, err
			}
			p.CostTime = time.Since(t0)
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// Exp3Group is one sub-plan equivalence group of Figure 10 (plans over
// the same join-graph partition), with normalized estimated and actual
// costs ordered by actual cost.
type Exp3Group struct {
	Tables    string
	Estimated []float64 // normalized: min actual = 1
	Actual    []float64
	// RankAgree reports whether the cheapest-estimated plan is also the
	// cheapest-actual plan — the property the optimizer needs.
	RankAgree bool
}

// Exp3Result is the cost-model accuracy study.
type Exp3Result struct {
	Groups []Exp3Group
	SF     float64
}

// Exp3 reproduces Figure 10: during a medium-reuse workload, pick a
// 5-way join query, enumerate every sub-plan alternative with its
// estimated cost, execute each in isolation for its actual cost, and
// compare normalized trends per equivalence group.
func Exp3(env *Env, warmupQueries int) (*Exp3Result, error) {
	opt := env.newOptimizer(optimizer.CostModel, 0)
	steps := workload.Generate(workload.Config{Level: workload.Medium, N: warmupQueries})
	var fiveWay *plan.Query
	for _, s := range steps {
		if _, err := opt.Run(s.Query); err != nil {
			return nil, err
		}
		if len(s.Query.Relations) == 5 && fiveWay == nil {
			fiveWay = s.Query
		}
	}
	if fiveWay == nil {
		// Fall back to the Exp2 trace's 5-way seed.
		fiveWay = workload.Exp2Trace()[0].Query
	}

	subs, err := opt.EnumerateSubPlans(fiveWay)
	if err != nil {
		return nil, err
	}
	type measured struct {
		est, act float64
	}
	byGroup := map[string][]measured{}
	var order []string
	for _, sp := range subs {
		d, err := opt.MeasureSubPlan(fiveWay, sp.Node)
		if err != nil {
			return nil, err
		}
		key := sp.Tables
		if _, seen := byGroup[key]; !seen {
			order = append(order, key)
		}
		byGroup[key] = append(byGroup[key], measured{est: sp.Estimated, act: float64(d.Nanoseconds())})
	}

	out := &Exp3Result{SF: env.SF}
	for _, key := range order {
		ms := byGroup[key]
		sort.Slice(ms, func(i, j int) bool { return ms[i].act < ms[j].act })
		minAct, minEst := ms[0].act, ms[0].est
		for _, m := range ms {
			if m.est < minEst {
				minEst = m.est
			}
		}
		if minAct <= 0 || minEst <= 0 {
			continue
		}
		g := Exp3Group{Tables: key, RankAgree: true}
		for i, m := range ms {
			g.Actual = append(g.Actual, m.act/minAct)
			g.Estimated = append(g.Estimated, m.est/minEst)
			if i == 0 && m.est > minEst*1.0001 {
				g.RankAgree = false // cheapest actual is not cheapest estimated
			}
		}
		out.Groups = append(out.Groups, g)
	}
	return out, nil
}

// Format renders the Figure 10 comparison.
func (r *Exp3Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment 3 — Accuracy of the Cost Model (SF=%.3f)\n", r.SF)
	fmt.Fprintf(&b, "  normalized costs per sub-plan group (ordered by actual; min=1.00)\n")
	agree := 0
	for _, g := range r.Groups {
		fmt.Fprintf(&b, "  group %-42s rank-agree=%v\n", g.Tables, g.RankAgree)
		fmt.Fprintf(&b, "    actual:    ")
		for _, v := range g.Actual {
			fmt.Fprintf(&b, "%6.2f", v)
		}
		fmt.Fprintf(&b, "\n    estimated: ")
		for _, v := range g.Estimated {
			fmt.Fprintf(&b, "%6.2f", v)
		}
		b.WriteByte('\n')
		if g.RankAgree {
			agree++
		}
	}
	fmt.Fprintf(&b, "  groups with agreeing minima: %d / %d\n", agree, len(r.Groups))
	return b.String()
}
