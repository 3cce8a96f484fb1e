package exec

import (
	"context"

	"hashstash/internal/exec/sched"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Morsel-driven execution: a pipeline's source splits into cursors over
// independent morsels that become the tasks of one scheduler job, and
// every worker pops those tasks from one shared FIFO queue (see
// exec/sched). Per-worker sinks build private partial hash tables that
// are merged into the pipeline's real sink when the job's last morsel
// drains, so the published table is immutable and later probes stay
// lock-free. A serial pipeline is the same job with one task streaming
// every cursor in order into the real sink; so is a pipeline whose
// source is under the spread floor (storage.MinSpreadRows) and yields
// one cursor, which then runs on the calling goroutine.
//
// A query's pipelines form one chain and run in compile order — the
// next pipeline is prepared only after the previous one's sink merged —
// because compile order already puts every build before its probes and
// every aggregation before its readout.

// Parallelism configures the parallel runner.
type Parallelism struct {
	// Workers is the worker-pool size. The calling goroutine runs the
	// chain; the rest of the pool starts only at the first pipeline that
	// splits into two or more morsels, so values <= 1 — or a chain of
	// one-morsel pipelines — run every pipeline as one task on the
	// caller.
	Workers int
	// MorselRows is the morsel granularity (<= 0 uses
	// storage.DefaultMorselRows, rebalanced per source for the pool; a
	// source shorter than storage.MinSpreadRows then stays one morsel).
	MorselRows int
	// Ctx aborts the run on cancellation or deadline expiry: in-flight
	// morsels stop at their next batch, queued ones are skipped, and the
	// runner returns an error wrapping hashstasherr.ErrCanceled. Nil
	// never cancels.
	Ctx context.Context
}

// RunParallel executes one query's pipelines as one chain of the
// morsel scheduler: in compile order, each pipeline's morsels spread
// across the pool.
func RunParallel(pipelines []*Pipeline, par Parallelism) error {
	chain := make([]*sched.Job, len(pipelines))
	for k, p := range pipelines {
		chain[k] = p.job(par)
	}
	return sched.Run(chain, sched.Options{Workers: par.Workers, Ctx: par.Ctx})
}

// job lowers one pipeline into a scheduler job. The split is deferred
// to the job's Prepare hook — it runs after the previous pipeline
// finished, which is the earliest moment a source over state built by
// it (an HTScan of a hash table the previous pipeline builds) can
// count its morsels. With two or more workers, two or more cursors and
// a sink with a parallel merge strategy, every cursor becomes one task
// streaming into a per-worker sink; otherwise the job is one task
// streaming the cursors in order into the real sink, as Run does.
func (p *Pipeline) job(par Parallelism) *sched.Job {
	return &sched.Job{
		Prepare: func(j *sched.Job) error {
			cursors, err := p.Source.Morsels(par.MorselRows, par.Workers)
			if err != nil {
				return err
			}
			var merge mergeSink
			if par.Workers >= 2 && len(cursors) >= 2 {
				merge = mergeSinkFor(p.Sink, par.Workers)
			}
			if merge == nil {
				j.NTasks = 1
				j.Run = func(int, int) error { return p.runAll(par.Ctx, cursors) }
				return nil
			}
			// Worker contexts are allocated eagerly, one per pool slot:
			// allocation work stays deterministic however the morsels
			// end up distributed (CI gates allocs/op across machines
			// with different core counts).
			ctxs := make([]*workerCtx, par.Workers)
			for w := range ctxs {
				ctxs[w] = &workerCtx{batches: p.newBatches(), sink: merge.worker(w)}
			}
			j.NTasks = len(cursors)
			j.Run = func(w, i int) error {
				// Slot w is only ever touched by worker w.
				c := ctxs[w]
				return p.stream(par.Ctx, cursors[i:i+1], c.batches, c.sink)
			}
			j.Finish = func() error {
				for _, c := range ctxs {
					releaseBatches(c.batches)
				}
				merge.merge()
				p.Sink.Finish()
				return nil
			}
			return nil
		},
	}
}

// workerCtx is one worker's private streaming state for one job: the
// per-stage batches and the per-worker partial sink.
type workerCtx struct {
	batches []*storage.Batch
	sink    Sink
}

// mergeSink adapts a pipeline sink for parallel consumption: worker(w)
// returns an independent sink for worker w; merge folds the worker
// results into the adapted sink after the last morsel. Partials are
// created eagerly for every pool slot (the runner requests each one at
// Prepare), keeping allocation work deterministic however the morsels
// end up distributed.
type mergeSink interface {
	worker(w int) Sink
	merge()
}

// mergeSinkFor returns the parallel adapter for a sink, or nil when the
// sink type has no parallel strategy and the pipeline must run as one
// task. Multi fans out to an adapter per child and parallelizes
// whenever every child does — the multi-sink grouping spines of shared
// plans build all their grouping tables from one scheduled scan.
func mergeSinkFor(s Sink, nw int) mergeSink {
	switch s := s.(type) {
	case *BuildHT:
		return newParallelBuild(s, nw)
	case *AggHT:
		return newParallelAgg(s, nw)
	case *Collect:
		return newParallelCollect(s, nw)
	case *Multi:
		if pm := newParallelMulti(s, nw); pm != nil {
			return pm
		}
	}
	return nil
}

// parallelBuild gives each worker a private partial hash table with the
// target's layout and chains every partial's entries into the target at
// merge (parallel join build).
type parallelBuild struct {
	target *BuildHT
	parts  []*BuildHT
}

func newParallelBuild(t *BuildHT, nw int) *parallelBuild {
	pb := &parallelBuild{target: t, parts: make([]*BuildHT, nw)}
	for w := range pb.parts {
		pb.parts[w] = &BuildHT{
			HT:     hashtable.New(t.HT.Layout()),
			InCols: t.InCols,
			row:    make([]uint64, len(t.InCols)),
		}
	}
	return pb
}

func (pb *parallelBuild) worker(w int) Sink { return pb.parts[w] }

func (pb *parallelBuild) merge() {
	parts := make([]*hashtable.Table, len(pb.parts))
	for w, part := range pb.parts {
		parts[w] = part.HT
		pb.target.inserted += part.inserted
	}
	pb.target.HT.MergeFrom(parts...)
}

// parallelAgg gives each worker a private partial aggregation table and
// folds the partial groups into the target at merge.
type parallelAgg struct {
	target *AggHT
	parts  []*AggHT
}

func newParallelAgg(t *AggHT, nw int) *parallelAgg {
	pa := &parallelAgg{target: t, parts: make([]*AggHT, nw)}
	for w := range pa.parts {
		pa.parts[w] = &AggHT{
			HT:        hashtable.New(t.HT.Layout()),
			GroupCols: t.GroupCols,
			Aggs:      t.Aggs,
			key:       make([]uint64, len(t.GroupCols)),
		}
	}
	return pa
}

func (pa *parallelAgg) worker(w int) Sink { return pa.parts[w] }

func (pa *parallelAgg) merge() {
	nKeys := len(pa.target.GroupCols)
	fold := func(col int, dst, src uint64) uint64 {
		return mergeAggBits(pa.target.Aggs[col-nKeys], dst, src)
	}
	for _, part := range pa.parts {
		// Serial-equivalent counters: every row the partial consumed
		// either created a group in the target (counted by the merge) or
		// folded into an existing one.
		rows := part.inserted + part.updated
		created := pa.target.HT.MergeGroupsFrom(part.HT, fold)
		pa.target.inserted += created
		pa.target.updated += rows - created
	}
}

// mergeAggBits folds two partial aggregate cells into one — the
// cell-level counterpart of AggHT.foldColumn (COUNT partials add,
// unlike the per-row +1).
func mergeAggBits(a AggCell, dst, src uint64) uint64 {
	switch a.Func {
	case expr.AggCount:
		return dst + src
	case expr.AggSum:
		return types.NewFloat(types.FromBits(types.Float64, dst).F + types.FromBits(types.Float64, src).F).Bits()
	case expr.AggMin:
		if a.Kind == types.Float64 {
			if types.FromBits(types.Float64, src).F < types.FromBits(types.Float64, dst).F {
				return src
			}
			return dst
		}
		if int64(src) < int64(dst) {
			return src
		}
		return dst
	case expr.AggMax:
		if a.Kind == types.Float64 {
			if types.FromBits(types.Float64, src).F > types.FromBits(types.Float64, dst).F {
				return src
			}
			return dst
		}
		if int64(src) > int64(dst) {
			return src
		}
		return dst
	}
	panic("exec: cannot merge aggregate")
}

// parallelCollect gives each worker a private Collect and appends
// their parts at merge; the target's Finish then joins, orders and cuts.
// Arrival order is worker-dependent (SQL result sets are unordered;
// tests compare sorted rows), so rows tied on an ORDER BY key may come
// out in another order than on one worker.
type parallelCollect struct {
	target *Collect
	parts  []*Collect
}

func newParallelCollect(t *Collect, nw int) *parallelCollect {
	pc := &parallelCollect{target: t, parts: make([]*Collect, nw)}
	for w := range pc.parts {
		pc.parts[w] = NewCollect(t.Schema, t.src, Order{})
	}
	return pc
}

func (pc *parallelCollect) worker(w int) Sink { return pc.parts[w] }

func (pc *parallelCollect) merge() {
	for _, part := range pc.parts {
		pc.target.absorb(part)
	}
}

// parallelMulti fans each worker's stream out to one partial per child
// sink; merge folds every child in declaration order.
type parallelMulti struct {
	children []mergeSink
	workers  []*Multi
}

func newParallelMulti(m *Multi, nw int) *parallelMulti {
	pm := &parallelMulti{children: make([]mergeSink, len(m.Sinks)), workers: make([]*Multi, nw)}
	for i, s := range m.Sinks {
		child := mergeSinkFor(s, nw)
		if child == nil {
			return nil
		}
		pm.children[i] = child
	}
	for w := range pm.workers {
		sinks := make([]Sink, len(pm.children))
		for i, child := range pm.children {
			sinks[i] = child.worker(w)
		}
		pm.workers[w] = &Multi{Sinks: sinks}
	}
	return pm
}

func (pm *parallelMulti) worker(w int) Sink { return pm.workers[w] }

func (pm *parallelMulti) merge() {
	for _, child := range pm.children {
		child.merge()
	}
}
