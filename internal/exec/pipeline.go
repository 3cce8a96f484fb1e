package exec

import (
	"context"
	"sync/atomic"

	"hashstash/hashstasherr"
	"hashstash/internal/faultinject"
	"hashstash/internal/storage"
)

// Pipeline is one push-based execution unit: a source streams batches
// through a transform chain into a sink. Hash-join build sides and
// aggregations terminate pipelines (pipeline breakers); probes are
// in-pipeline transforms, exactly as in produce/consume-style compiled
// engines.
type Pipeline struct {
	Source     Source
	Transforms []Transform
	Sink       Sink

	// RowsIn counts source rows, RowsOut counts rows reaching the sink.
	// Both are updated atomically (the parallel runner streams morsels
	// from many workers); read them with the RowsIn/RowsOut methods or
	// after the pipeline completes.
	RowsIn  int64
	RowsOut int64
}

// newBatches takes one batch per pipeline stage from the batch pool
// (the parallel runner takes an independent set per worker).
func (p *Pipeline) newBatches() []*storage.Batch {
	batches := make([]*storage.Batch, len(p.Transforms)+1)
	batches[0] = storage.NewBatch(p.Source.Schema())
	for i, t := range p.Transforms {
		batches[i+1] = storage.NewBatch(t.OutSchema())
	}
	return batches
}

// releaseBatches hands a finished task set's batches back to the pool.
// Only a run that succeeded releases: after a failure or a panic a
// batch may still be in use, and the garbage collector takes it.
func releaseBatches(batches []*storage.Batch) {
	for _, b := range batches {
		b.Release()
	}
}

// stream drains cursors in order through the transform chain into
// sink, reusing the per-stage batches. It is one task's work: a
// whole-pipeline task (every cursor, the pipeline's sink) or a morsel
// task (one cursor, a per-worker sink). It polls ctx (nil never
// cancels) before every source batch and before every further output
// batch of a transform that fans one input out over several, so a
// deadline lands within one batch's work rather than one task's, and
// returns an error wrapping hashstasherr.ErrCanceled with the sink
// unfinished.
func (p *Pipeline) stream(ctx context.Context, cursors []Cursor, batches []*storage.Batch, sink Sink) error {
	// The highest-frequency fault point: one hit per task, where the
	// chaos suite simulates operator panics.
	if err := faultinject.Inject(faultinject.ExecMorsel); err != nil {
		return err
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for _, c := range cursors {
		c.Open()
		for {
			if err := canceled(ctx, done); err != nil {
				return err
			}
			batches[0].Reset()
			if !c.Next(batches[0]) {
				break
			}
			atomic.AddInt64(&p.RowsIn, int64(batches[0].Len()))
			if err := p.push(ctx, done, 0, batches, sink); err != nil {
				return err
			}
		}
	}
	return nil
}

// push runs batches[k] through transforms k onwards into sink. A
// transform that reports more output for its input is drained: each of
// its output batches goes through the rest of the chain before the
// next is made, so no stage ever holds more than one batch.
func (p *Pipeline) push(ctx context.Context, done <-chan struct{}, k int, batches []*storage.Batch, sink Sink) error {
	cur := batches[k]
	if k == len(p.Transforms) {
		atomic.AddInt64(&p.RowsOut, int64(cur.Len()))
		if cur.Len() > 0 {
			sink.Consume(cur)
		}
		return nil
	}
	t, next := p.Transforms[k], batches[k+1]
	for {
		next.Reset()
		more := t.Apply(cur, next)
		if err := p.push(ctx, done, k+1, batches, sink); err != nil || !more {
			return err
		}
		if err := canceled(ctx, done); err != nil {
			return err
		}
	}
}

// canceled polls done, ctx's done channel (nil never fires).
func canceled(ctx context.Context, done <-chan struct{}) error {
	select {
	case <-done:
		return hashstasherr.Canceled(ctx.Err())
	default:
		return nil
	}
}

// Run streams the pipeline to completion on the calling goroutine: the
// runner's one-task path over the source's cursors.
func (p *Pipeline) Run() error {
	cursors, err := p.Source.Morsels(0, 1)
	if err != nil {
		return err
	}
	return p.runAll(context.TODO(), cursors)
}

// runAll streams cursors in order into the pipeline's sink under ctx,
// releases its batches and finishes the sink.
func (p *Pipeline) runAll(ctx context.Context, cursors []Cursor) error {
	batches := p.newBatches()
	if err := p.stream(ctx, cursors, batches, p.Sink); err != nil {
		return err
	}
	releaseBatches(batches)
	p.Sink.Finish()
	return nil
}

// Stats returns the pipeline's row counters; safe to call while the
// pipeline is running.
func (p *Pipeline) Stats() (rowsIn, rowsOut int64) {
	return atomic.LoadInt64(&p.RowsIn), atomic.LoadInt64(&p.RowsOut)
}

// OutSchema reports the schema reaching the sink.
func (p *Pipeline) OutSchema() storage.Schema {
	if len(p.Transforms) > 0 {
		return p.Transforms[len(p.Transforms)-1].OutSchema()
	}
	return p.Source.Schema()
}
