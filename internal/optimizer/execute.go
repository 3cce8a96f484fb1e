package optimizer

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"hashstash/hashstasherr"
	"hashstash/internal/exec"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Result is a fully executed query.
type Result struct {
	Columns []string
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
// one (partial/overlapping reuse) builds a private copy-on-write
// successor and installs it with a compare-and-swap after its pipelines
// drain. The query holds every snapshot it resolved at plan time until
// its probes finish, so the garbage collector cannot free one it still
// reads; its pins keep the entries it uses out of cache eviction.
func (o *Optimizer) Run(q *plan.Query) (*Result, error) {
	return o.RunContext(context.Background(), q)
}

// RunContext is Run under a context: cancellation or deadline expiry
// aborts morsel dispatch (in-flight morsels finish, queued ones are
// skipped) and the query unwinds through the normal failure path —
// pins released, half-built tables abandoned — returning an error that
// wraps hashstasherr.ErrCanceled and the context's own cause.
func (o *Optimizer) RunContext(ctx context.Context, q *plan.Query) (*Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, hashstasherr.Canceled(err)
		}
	}
	p, err := o.Prepare(q)
	if err != nil {
		return nil, err
	}
	par := p.Parallelism()
	par.Ctx = ctx
	t1 := time.Now()
	runErr := exec.RunParallel(p.Pipelines(), par)
	res, err := p.finishSafe(runErr, time.Since(t1))
	return res, err
}

// finishSafe runs Finish under a panic boundary: a panic while
// publishing (an injected htcache.publish fault, snapshot-maintenance
// gone wrong) still unwinds the prepared state — pins released,
// created tables abandoned — so one poisoned publication cannot leak
// pins or take the process down. The publication sites fire before
// Finish's release loops, so the pins are still held when it panics.
func (p *Prepared) finishSafe(runErr error, execTime time.Duration) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = hashstasherr.Internal("optimizer.finish", r)
			res = nil
			p.done = true
			p.o.discard(p.compiled)
		}
	}()
	return p.Finish(runErr, execTime)
}

// Prepared is a planned and compiled query whose pipelines have not run
// yet. The sharded scatter-gather executor uses the split form: it
// Prepares one sub-query per shard, fans every shard's pipelines into a
// single scheduler run (one chain per shard), then Finishes
// each to publish snapshots and collect results. The prepared query
// holds its pins on its optimizer's cache until Finish or Abort.
type Prepared struct {
	o        *Optimizer
	planned  *Planned
	compiled *Compiled
	planTime time.Duration
	done     bool
}

// Prepare plans and compiles a query, pinning the cached entries it
// reuses and registering the tables it builds. Every Prepare must be
// paired with exactly one Finish or Abort. A panic while planning or
// compiling (this boundary also covers the sharded executor's scatter
// goroutines, which call Prepare directly) comes back as an internal
// error with the compiler's pins and registrations already unwound.
func (o *Optimizer) Prepare(q *plan.Query) (p *Prepared, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, hashstasherr.Internal("optimizer.plan", r)
		}
	}()
	t0 := time.Now()
	planned, err := o.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	compiled, err := o.Compile(planned)
	if err != nil {
		return nil, err
	}
	return &Prepared{o: o, planned: planned, compiled: compiled, planTime: time.Since(t0)}, nil
}

// Pipelines exposes the compiled pipelines for an external runner.
func (p *Prepared) Pipelines() []*exec.Pipeline { return p.compiled.Pipelines }

// Parallelism is the execution configuration the optimizer would run
// the pipelines under.
func (p *Prepared) Parallelism() exec.Parallelism { return p.o.Opts.Parallelism }

// Finish completes a prepared query after its pipelines ran (runErr is
// the runner's verdict): on success it publishes widened snapshots,
// releases pins and assembles the Result; on failure it unwinds the
// compiled state.
func (p *Prepared) Finish(runErr error, execTime time.Duration) (*Result, error) {
	if p.done {
		return nil, fmt.Errorf("optimizer: Finish on completed query")
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
		return nil, runErr
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

	var rowsIn, rowsOut int64
	for _, pl := range compiled.Pipelines {
		in, out := pl.Stats()
		rowsIn += in
		rowsOut += out
	}
	return &Result{
		Columns:       compiled.Columns,
		Rows:          compiled.Out.Rows,
		PlanTime:      p.planTime,
		ExecTime:      execTime,
		RowsIn:        rowsIn,
		RowsOut:       rowsOut,
		EstimatedCost: p.planned.EstimatedCost,
		Decisions:     p.planned.Decisions(),
	}, nil
}

// Abort unwinds a prepared query whose pipelines never ran (a sibling
// shard failed before the scatter launched).
func (p *Prepared) Abort() {
	if p.done {
		return
	}
	p.done = true
	p.o.discard(p.compiled)
}

// OrderAndLimit applies a query's ORDER BY / LIMIT to rows that are
// already boxed — the shard aggregate merge and the materialized
// baseline. It picks rows with the same permutation selector the
// result collector uses: the first Limit rows of a stable sort.
func OrderAndLimit(rows [][]types.Value, columns []string, q *plan.Query) [][]types.Value {
	idx := -1
	if q.OrderBy != nil {
		idx = slices.Index(columns, q.OrderBy.Col.String())
	}
	if idx < 0 {
		if q.Limit > 0 && len(rows) > q.Limit {
			rows = rows[:q.Limit]
		}
		return rows
	}
	desc := q.OrderBy.Desc
	perm := storage.OrderPerm(len(rows), q.Limit, func(a, b int32) int {
		c := rows[a][idx].Compare(rows[b][idx])
		if desc {
			c = -c
		}
		if c != 0 {
			return c
		}
		return int(a) - int(b)
	})
	out := make([][]types.Value, len(perm))
	for i, r := range perm {
		out[i] = rows[r]
	}
	return out
}

// discard unwinds a compiled plan that will not publish its tables —
// either discarded before execution or failed during it: reused
// entries are unpinned and freshly registered (still unready, possibly
// half-built) tables are removed rather than released as candidates.
func (o *Optimizer) discard(c *Compiled) {
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
			options := o.joinBuildOptions(q, sub, buildKeys, probePlan.OutRows, ctx.needed, func(m int) *Node {
				return o.bestPlan(ctx, m)
			})
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
	c := &compiler{o: o, q: q, needed: o.neededCols(q), out: &Compiled{}, register: false}
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
