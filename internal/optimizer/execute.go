package optimizer

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hashstash/hashstasherr"
	"hashstash/internal/exec"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Result is a fully executed query. Its answer is columnar: Vecs holds
// one typed vector per name in Columns, rows in final order, exactly as
// the result collector (exec.Collect) left them.
// Rows is the same answer boxed row by row, filled only by Box: the
// library entry points (hashstash.DB.ExecParsed and ExecParsedBatch)
// box at their boundary, while the serving front-end encodes straight
// from Vecs and never boxes.
type Result struct {
	Columns []string
	Vecs    []storage.Vec
	Rows    [][]types.Value

	// PlanTime and ExecTime separate optimization from execution.
	PlanTime time.Duration
	ExecTime time.Duration
	// RowsIn and RowsOut total the pipelines' row counters: source rows
	// streamed and rows reaching sinks (per-pipeline counters are
	// updated atomically by the parallel runner's workers).
	RowsIn  int64
	RowsOut int64
	// EstimatedCost is the optimizer's estimate (ns) for the chosen plan.
	EstimatedCost float64
	// Decisions is the per-operator reuse decision log.
	Decisions []Decision
}

// Run plans, compiles and executes a query, maintaining the hash-table
// cache (pins, registrations, snapshot publications after widening).
//
// Run is safe for concurrent use and single-path: every query — read-
// only reuse and cached-table widening alike — executes concurrently.
// Cached tables are immutable published snapshots; a plan that widens
// one (partial/overlapping reuse) builds a private copy and installs it
// with a compare-and-swap after its pipelines drain. The query holds
// every snapshot it resolved at plan time until its probes finish, so
// the garbage collector cannot free one it still reads; its pins keep
// the entries it uses out of cache eviction.
func (o *Optimizer) Run(q *plan.Query) (*Result, error) {
	return o.RunContext(context.Background(), q)
}

// RunContext is Run under a context: cancellation or deadline expiry
// aborts morsel dispatch (in-flight morsels stop at their next batch,
// queued ones are skipped) and the query unwinds through the normal
// failure path — pins released, half-built tables abandoned — returning
// an error that wraps hashstasherr.ErrCanceled and the context's own cause.
func (o *Optimizer) RunContext(ctx context.Context, q *plan.Query) (*Result, error) {
	p, execTime, err := o.run(ctx, q, nil, 0)
	if err != nil {
		return nil, err
	}
	return p.result(0, execTime), nil
}

// RunSharedContext runs members — two or more mergeable queries (one
// join graph, all aggregates or all SPJ, no ORDER BY or LIMIT, at most
// 64) — as one shared plan (Section 4) under ctx, and returns their
// results in order. cost is the batch planner's estimate of the plan.
// The plan pins, publishes, quarantines and unwinds exactly as a solo
// query does.
func (o *Optimizer) RunSharedContext(ctx context.Context, members []*plan.Query, cost float64) ([]*Result, error) {
	p, execTime, err := o.run(ctx, members[0], members, cost)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(members))
	for i := range out {
		out[i] = p.result(i, execTime)
	}
	return out, nil
}

// run prepares a plan (see prepare), executes its pipelines under ctx
// and finishes it, returning it with its execution time.
func (o *Optimizer) run(ctx context.Context, q *plan.Query, members []*plan.Query, cost float64) (*Prepared, time.Duration, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, 0, hashstasherr.Canceled(err)
		}
	}
	p, err := o.prepare(q, members, cost)
	if err != nil {
		return nil, 0, err
	}
	par := o.Opts.Parallelism
	par.Ctx = ctx
	t1 := time.Now()
	runErr := exec.RunParallel(p.compiled.Pipelines, par)
	execTime := time.Since(t1)
	return p, execTime, p.finishSafe(runErr)
}

// finishSafe runs finish under a panic boundary: a panic while
// publishing (an injected htcache.publish fault) still unwinds the
// prepared state — pins released, created tables abandoned — so one
// poisoned publication cannot leak pins or take the process down. The
// publication sites fire before finish's release loops, so the pins are
// still held when it panics.
func (p *Prepared) finishSafe(runErr error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = hashstasherr.Internal("optimizer.finish", r)
			p.done = true
			p.o.discard(p.compiled)
		}
	}()
	return p.finish(runErr)
}

// Prepared is a planned and compiled query whose pipelines have not run
// yet. It holds its pins on its optimizer's cache until it finishes.
type Prepared struct {
	o        *Optimizer
	planned  *Planned
	compiled *compiledPlan
	planTime time.Duration
	done     bool
}

// prepare plans and compiles a query, pinning the cached entries it
// reuses and registering the tables it builds; every prepare must be
// paired with exactly one finish. With members (q the first) it
// prepares one shared plan for them, its spine q's best join tree with
// every build fresh and cost its estimate. A panic while planning or
// compiling comes back as an internal error with the compiler's pins
// and registrations already unwound.
func (o *Optimizer) prepare(q *plan.Query, members []*plan.Query, cost float64) (p *Prepared, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, hashstasherr.Internal("optimizer.plan", r)
		}
	}()
	t0 := time.Now()
	var planned *Planned
	if members == nil {
		planned, err = o.PlanQuery(q)
	} else {
		var root *Node
		root, err = o.planSPJ(q, false)
		planned = &Planned{Query: q, Root: root, EstimatedCost: cost}
	}
	if err != nil {
		return nil, err
	}
	compiled, err := o.compile(planned, members)
	if err != nil {
		return nil, err
	}
	return &Prepared{o: o, planned: planned, compiled: compiled, planTime: time.Since(t0)}, nil
}

// finish publishes and releases (or, on runErr, unwinds) the plan's
// cache state.
func (p *Prepared) finish(runErr error) error {
	if p.done {
		return fmt.Errorf("optimizer: finish on completed query")
	}
	p.done = true

	o, compiled := p.o, p.compiled
	if runErr != nil {
		// A contained panic (or injected internal fault) while this
		// query held cached snapshots: conservatively quarantine every
		// pinned artifact. The panic may have fired mid-probe over any
		// of them, and a poisoned table must not crash the next query
		// that reuses it — its lineage is struck until the base table
		// changes (see htcache.Quarantine).
		var ie *hashstasherr.InternalError
		if errors.As(runErr, &ie) {
			for _, e := range compiled.pinned {
				o.Cache.Quarantine(e)
			}
		}
		o.discard(compiled)
		return runErr
	}

	// Partial/overlapping reuse widened snapshots; publish the
	// successors so later queries match the widened content. A lost
	// CAS (a concurrent widening won) is benign: this query's results
	// came from its own successor, only the competitor's version stays
	// cached.
	for _, fu := range compiled.filterUpdates {
		o.Cache.PublishWidened(fu.entry, fu.prev, fu.ht, fu.newFilter)
	}
	for _, e := range compiled.pinned {
		o.Cache.Release(e)
	}
	for _, e := range compiled.created {
		o.Cache.Release(e)
	}
	return nil
}

// result assembles output i's Result after a successful finish. Each of
// a shared plan's k members reports a 1/k share of the plan's times,
// row counters and estimate, so a batch's results add up to what its
// plans cost, and every member reports the plan's decisions.
func (p *Prepared) result(i int, execTime time.Duration) *Result {
	var rowsIn, rowsOut int64
	for _, pl := range p.compiled.Pipelines {
		in, out := pl.Stats()
		rowsIn += in
		rowsOut += out
	}
	out := &p.compiled.outs[i]
	res := &Result{
		Columns:       out.columns,
		Vecs:          out.cols(),
		PlanTime:      p.planTime,
		ExecTime:      execTime,
		RowsIn:        rowsIn,
		RowsOut:       rowsOut,
		EstimatedCost: p.planned.EstimatedCost,
		Decisions:     p.compiled.decisions,
	}
	if k := len(p.compiled.outs); k > 1 {
		res.PlanTime /= time.Duration(k)
		res.ExecTime /= time.Duration(k)
		res.RowsIn /= int64(k)
		res.RowsOut /= int64(k)
		res.EstimatedCost /= float64(k)
	} else {
		res.Decisions = p.planned.Decisions()
	}
	return res
}

// Len reports the answer's row count.
func (r *Result) Len() int {
	if len(r.Vecs) == 0 {
		return 0
	}
	return r.Vecs[0].Len()
}

// Box fills Rows from Vecs, every row's cells backed by one array (two
// allocations); an empty answer leaves Rows nil. It is the one place an
// answer is boxed, and boxing twice is a no-op.
func (r *Result) Box() {
	n, w := r.Len(), len(r.Vecs)
	if r.Rows != nil || n == 0 {
		return
	}
	cells := make([]types.Value, n*w)
	r.Rows = make([][]types.Value, n)
	for i := range r.Rows {
		row := cells[i*w : (i+1)*w : (i+1)*w]
		for c := range r.Vecs {
			row[c] = r.Vecs[c].Value(i)
		}
		r.Rows[i] = row
	}
}

// discard unwinds a compiled plan that will not publish its tables —
// either discarded before execution or failed during it: reused
// entries are unpinned and freshly registered (still unready, possibly
// half-built) tables are removed rather than released as candidates.
func (o *Optimizer) discard(c *compiledPlan) {
	for _, e := range c.pinned {
		o.Cache.Release(e)
	}
	for _, e := range c.created {
		o.Cache.Abandon(e)
	}
}

// SubPlanEstimate pairs an enumerated sub-plan alternative with its
// cost estimate (the Figure 10 accuracy experiment enumerates these and
// compares against measured runtimes).
type SubPlanEstimate struct {
	Mask      int
	Tables    string
	Node      *Node
	Estimated float64
}

// EnumerateSubPlans re-runs the enumeration, collecting every
// alternative (per connected relation mask, one entry per build option
// and partition) with its estimated cost.
func (o *Optimizer) EnumerateSubPlans(q *plan.Query) ([]SubPlanEstimate, error) {
	if err := q.Validate(o.Cat); err != nil {
		return nil, err
	}
	ctx := &planContext{q: q, needed: o.neededCols(q), memo: make(map[int]*Node)}
	full := (1 << uint(len(q.Relations))) - 1
	var out []SubPlanEstimate
	for mask := 1; mask <= full; mask++ {
		if mask&(mask-1) == 0 || !q.ConnectedSubgraph(mask) {
			continue
		}
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			comp := mask &^ sub
			if comp == 0 || !q.ConnectedSubgraph(sub) || !q.ConnectedSubgraph(comp) {
				continue
			}
			crossing := q.CrossingJoins(sub, comp)
			if len(crossing) == 0 {
				continue
			}
			buildKeys, probeKeys := splitKeys(q, crossing, sub)
			probePlan := o.bestPlan(ctx, comp)
			options := o.joinBuildOptions(ctx, sub, buildKeys, probePlan.OutRows)
			outRows := o.joinOutRows(q, mask)
			for i := range options {
				opt := &options[i]
				node := &Node{
					Kind: nodeJoin, Mask: mask, BuildMask: sub,
					Build: opt.buildPlan, Probe: probePlan,
					BuildKeys: buildKeys, ProbeKeys: probeKeys,
					BuildFilter: maskFilter(q, sub),
					Reuse:       &opt.choice, OutRows: outRows,
					Cost: probePlan.Cost + opt.totalCost,
				}
				out = append(out, SubPlanEstimate{
					Mask:      mask,
					Tables:    buildTables(q, mask),
					Node:      node,
					Estimated: node.Cost,
				})
			}
		}
	}
	return out, nil
}

// MeasureSubPlan executes one sub-plan alternative in isolation (no
// cache registration) and returns its wall-clock time. The plan's
// output is drained into a throwaway collector.
func (o *Optimizer) MeasureSubPlan(q *plan.Query, node *Node) (time.Duration, error) {
	c := &compiler{o: o, q: q, needed: o.neededCols(q), out: &compiledPlan{}, register: false}
	src, tfs, schema, err := c.compileStream(node)
	if err != nil {
		return 0, err
	}
	collect := exec.NewCollect(schema, nil, exec.Order{})
	c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: collect})
	t0 := time.Now()
	if err := exec.RunParallel(c.out.Pipelines, exec.Parallelism{Workers: 1}); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}
