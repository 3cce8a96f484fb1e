package exec

import (
	"fmt"
	"sync/atomic"
	"testing"

	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// plainSource wraps a source as one cursor chaining all of its morsels —
// a source that does not split.
type plainSource struct{ src Source }

func (p *plainSource) Schema() storage.Schema { return p.src.Schema() }

func (p *plainSource) Morsels(rows, workers int) ([]Cursor, error) {
	cursors, err := p.src.Morsels(rows, workers)
	if err != nil {
		return nil, err
	}
	return []Cursor{&chainCursor{cursors: cursors}}, nil
}

// chainCursor drains its cursors one after the other.
type chainCursor struct {
	cursors []Cursor
	i       int
}

func (c *chainCursor) Open() {
	c.i = 0
	if len(c.cursors) > 0 {
		c.cursors[0].Open()
	}
}

func (c *chainCursor) Next(out *storage.Batch) bool {
	for c.i < len(c.cursors) {
		if c.cursors[c.i].Next(out) {
			return true
		}
		if c.i++; c.i < len(c.cursors) {
			c.cursors[c.i].Open()
		}
	}
	return false
}

// gateSink wraps a sink, recording Finish — and has no parallel merge
// strategy, so its pipeline runs as one whole-pipeline task.
type gateSink struct {
	sink     Sink
	finished atomic.Bool
}

func (g *gateSink) Consume(b *storage.Batch) { g.sink.Consume(b) }
func (g *gateSink) Finish()                  { g.sink.Finish(); g.finished.Store(true) }

// checkedProbe fails the run if a probe batch flows before the build
// sink finished — the chain-order correctness property.
type checkedProbe struct {
	*Probe
	built     *atomic.Bool
	violation *atomic.Bool
}

func (c *checkedProbe) Apply(in, out *storage.Batch) bool {
	if !c.built.Load() {
		c.violation.Store(true)
	}
	return c.Probe.Apply(in, out)
}

// tagJoinLayout is the b_tag -> b_val build layout used by the
// ordering tests.
func tagJoinLayout() hashtable.Layout {
	return hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "b", Column: "b_tag"}, Kind: types.String},
			{Ref: storage.ColRef{Table: "b", Column: "b_val"}, Kind: types.Float64},
		},
		KeyCols: 1,
		Dict:    bigDict,
	}
}

// TestProbeNeverStartsBeforeBuildFinishes runs the join shape under a
// worker storm and asserts compile order held: no probe batch flowed
// before the build sink's Finish.
func TestProbeNeverStartsBeforeBuildFinishes(t *testing.T) {
	tbl := bigTable(60_000, 11)

	run := func(par Parallelism) [][]types.Value {
		ht := hashtable.New(tagJoinLayout())
		bsrc, err := NewTableScan(tbl, "b", nil, []string{"b_tag", "b_val"})
		if err != nil {
			t.Fatal(err)
		}
		bsink, err := NewBuildHT(ht, bsrc.Schema(), nil)
		if err != nil {
			t.Fatal(err)
		}
		gate := &gateSink{sink: bsink}
		build := &Pipeline{Source: bsrc, Sink: gate}

		// Probe side: a handful of rows — the property under test is the
		// chain order (the probe job must not be seeded until the build
		// finishes), not probe throughput, and each row fans out to
		// thousands of matches anyway.
		psrc, err := NewTableScan(tbl, "b", []expr.Box{keyBox(0, 6)}, []string{"b_key", "b_tag"})
		if err != nil {
			t.Fatal(err)
		}
		probe, err := NewProbe(ht, []storage.ColRef{{Table: "b", Column: "b_tag"}}, []int{1}, nil, nil, psrc.Schema())
		if err != nil {
			t.Fatal(err)
		}
		var violation atomic.Bool
		checked := &checkedProbe{Probe: probe, built: &gate.finished, violation: &violation}
		collect := NewCollect(probe.OutSchema(), nil, Order{})
		probeP := &Pipeline{Source: psrc, Transforms: []Transform{checked}, Sink: collect}

		if err := RunParallel([]*Pipeline{build, probeP}, par); err != nil {
			t.Fatal(err)
		}
		if violation.Load() {
			t.Fatal("a probe batch flowed before the build sink finished")
		}
		return rowsOf(collect)
	}

	serial := run(Parallelism{Workers: 1})
	for _, workers := range []int{2, 8} {
		assertSameRows(t, serial, run(Parallelism{Workers: workers, MorselRows: 2048}))
	}
}

// TestRunParallelSerialFallbacks covers every path that must run a
// pipeline as a single whole-pipeline task: a source with one cursor, a
// sink without a merge strategy, and Workers <= 1.
func TestRunParallelSerialFallbacks(t *testing.T) {
	tbl := bigTable(20_000, 13)

	mkScan := func() *TableScan {
		src, err := NewTableScan(tbl, "b", nil, []string{"b_key", "b_grp"})
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	serial := runToCollect(t, mkScan())

	t.Run("unsplittableSource", func(t *testing.T) {
		collect := NewCollect(mkScan().Schema(), nil, Order{})
		p := &Pipeline{Source: &plainSource{src: mkScan()}, Sink: collect}
		if err := RunParallel([]*Pipeline{p}, Parallelism{Workers: 4, MorselRows: 1024}); err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, rowsOf(serial), rowsOf(collect))
	})

	t.Run("noMergeSink", func(t *testing.T) {
		collect := NewCollect(mkScan().Schema(), nil, Order{})
		gate := &gateSink{sink: collect}
		p := &Pipeline{Source: mkScan(), Sink: gate}
		if err := RunParallel([]*Pipeline{p}, Parallelism{Workers: 4, MorselRows: 1024}); err != nil {
			t.Fatal(err)
		}
		if !gate.finished.Load() {
			t.Fatal("fallback pipeline never finished its sink")
		}
		got, want := rowsOf(collect), rowsOf(serial)
		assertSameRows(t, want, got)
		// A whole-pipeline task preserves scan order exactly.
		for i := range got {
			if got[i][0].I != want[i][0].I {
				t.Fatalf("row %d out of order: %v vs %v", i, got[i][0], want[i][0])
			}
		}
	})

	t.Run("singleWorker", func(t *testing.T) {
		collect := NewCollect(mkScan().Schema(), nil, Order{})
		p := &Pipeline{Source: mkScan(), Sink: collect}
		if err := RunParallel([]*Pipeline{p}, Parallelism{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, rowsOf(serial), rowsOf(collect))
	})
}

// TestMultiSinkSpineParallel: a pipeline fanning out to several
// mergeable sinks (the shared-plan grouping-spine shape) splits into
// morsels, with every child sink merged from per-worker partials.
func TestMultiSinkSpineParallel(t *testing.T) {
	tbl := bigTable(40_000, 23)

	run := func(par Parallelism) ([][]types.Value, [][]types.Value) {
		src, err := NewTableScan(tbl, "b", nil, []string{"b_tag", "b_val"})
		if err != nil {
			t.Fatal(err)
		}
		ht := hashtable.New(tagJoinLayout())
		bsink, err := NewBuildHT(ht, src.Schema(), nil)
		if err != nil {
			t.Fatal(err)
		}
		collect := NewCollect(src.Schema(), nil, Order{})
		p := &Pipeline{Source: src, Sink: &Multi{Sinks: []Sink{bsink, collect}}}
		if err := RunParallel([]*Pipeline{p}, par); err != nil {
			t.Fatal(err)
		}
		return htRows(t, ht), rowsOf(collect)
	}

	sRows, sCollected := run(Parallelism{Workers: 1})
	pRows, pCollected := run(Parallelism{Workers: 4, MorselRows: 2048})
	assertSameRows(t, sRows, pRows)
	assertSameRows(t, sCollected, pCollected)
}

// TestRebuildConsumerOrdering: a pipeline reading a hash table the
// previous pipeline rebuilt from a cached one (the materialized
// baseline's reuse shape: aggregate, read the table out into a private
// copy, read the copy) must wait for the rebuild. The readout counts its
// morsels when its turn comes, so it must see every rebuilt entry.
func TestRebuildConsumerOrdering(t *testing.T) {
	tbl := bigTable(30_000, 17)

	run := func(par Parallelism) [][]types.Value {
		// Pipeline 1: scan → aggregate.
		aggP, aggHT := scanAggPipeline(t, tbl, nil)
		// Pipeline 2: HT readout → rebuild into a private table.
		hsrc, err := NewHTScan(aggHT, identityColsTest(len(aggHT.Layout().Cols)), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt := hashtable.New(aggHT.Layout())
		sink, err := NewBuildHT(rebuilt, hsrc.Schema(), nil)
		if err != nil {
			t.Fatal(err)
		}
		rebuild := &Pipeline{Source: hsrc, Sink: sink}
		// Pipeline 3: read the rebuilt table into the final collect.
		resrc, err := NewHTScan(rebuilt, identityColsTest(len(rebuilt.Layout().Cols)), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		collect := NewCollect(resrc.Schema(), nil, Order{})
		final := &Pipeline{Source: resrc, Sink: collect}
		if err := RunParallel([]*Pipeline{aggP, rebuild, final}, par); err != nil {
			t.Fatal(err)
		}
		return rowsOf(collect)
	}

	serial := run(Parallelism{Workers: 1})
	parallel := run(Parallelism{Workers: 8, MorselRows: 1024})
	if len(serial) != 17 {
		t.Fatalf("serial readout has %d groups, want 17", len(serial))
	}
	assertSameRows(t, serial, parallel)
}

// TestExecMorselStorm floods the scheduler with many small pipelines and
// fine morsels under -race: aggregations followed by their readouts,
// all sharing the pool.
func TestExecMorselStorm(t *testing.T) {
	tbl := bigTable(50_000, 29)
	var pipelines []*Pipeline
	var hts []*hashtable.Table
	var collects []*Collect
	for i := 0; i < 6; i++ {
		p, ht := scanAggPipeline(t, tbl, nil)
		pipelines = append(pipelines, p)
		hts = append(hts, ht)
	}
	for _, ht := range hts {
		src, err := NewHTScan(ht, identityColsTest(len(ht.Layout().Cols)), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		collect := NewCollect(src.Schema(), nil, Order{})
		pipelines = append(pipelines, &Pipeline{Source: src, Sink: collect})
		collects = append(collects, collect)
	}
	if err := RunParallel(pipelines, Parallelism{Workers: 8, MorselRows: 1024}); err != nil {
		t.Fatal(err)
	}
	want := sortedRows(rowsOf(collects[0]))
	if len(want) != 29 {
		t.Fatalf("got %d groups, want 29", len(want))
	}
	for i, c := range collects[1:] {
		got := sortedRows(rowsOf(c))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("readout %d diverged", i+1)
		}
	}
}
