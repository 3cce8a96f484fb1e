package exec

import (
	"runtime"
	"sync/atomic"
	"testing"

	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// boundCheck wraps a transform and records the longest batch it was
// handed and the longest it emitted.
type boundCheck struct {
	Transform
	longest *atomic.Int64
}

func (c boundCheck) note(n int) {
	for {
		cur := c.longest.Load()
		if int64(n) <= cur || c.longest.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

func (c boundCheck) Apply(in, out *storage.Batch) bool {
	c.note(in.Len())
	more := c.Transform.Apply(in, out)
	c.note(out.Len())
	return more
}

// TestPipelineBatchesBounded: every batch Pipeline.stream hands to a
// transform or to the sink holds at most storage.BatchSize rows, even
// behind a probe whose every input batch fans out 500-fold, and the
// drained probe still delivers every match. Runs at one worker and at
// GOMAXPROCS over small morsels.
func TestPipelineBatchesBounded(t *testing.T) {
	const groups, buildRows, probeRows = 4, 2000, 3000
	build := bigTable(buildRows, groups)
	probeTbl := bigTable(probeRows, groups)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		ht := hashtable.New(hashtable.Layout{
			Cols: []storage.ColMeta{
				{Ref: storage.ColRef{Table: "d", Column: "b_grp"}, Kind: types.Int64},
				{Ref: storage.ColRef{Table: "d", Column: "b_val"}, Kind: types.Float64},
			},
			KeyCols: 1,
		})
		bsrc, err := NewTableScan(build, "d", nil, []string{"b_grp", "b_val"})
		if err != nil {
			t.Fatal(err)
		}
		bsink, err := NewBuildHT(ht, bsrc.Schema(), nil)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewTableScan(probeTbl, "b", nil, []string{"b_grp", "b_tag"})
		if err != nil {
			t.Fatal(err)
		}
		probe, err := NewProbe(ht, []storage.ColRef{{Table: "b", Column: "b_grp"}}, []int{1}, nil, nil, src.Schema())
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, len(probe.OutSchema()))
		for i := range all {
			all[i] = i
		}
		project, err := NewProject(all, nil, probe.OutSchema())
		if err != nil {
			t.Fatal(err)
		}
		grp := storage.ColRef{Table: "b", Column: "b_grp"}
		agg, err := NewAggHT(hashtable.New(hashtable.Layout{
			Cols: []storage.ColMeta{
				{Ref: grp, Kind: types.Int64},
				{Ref: storage.ColRef{Column: "n"}, Kind: types.Int64},
			},
			KeyCols: 1,
		}), []storage.ColRef{grp}, []AggCell{{Func: expr.AggCount, InCol: -1, Kind: types.Int64}}, project.OutSchema())
		if err != nil {
			t.Fatal(err)
		}
		var longest atomic.Int64
		p := &Pipeline{
			Source:     src,
			Transforms: []Transform{boundCheck{probe, &longest}, boundCheck{project, &longest}},
			Sink:       agg,
		}
		par := Parallelism{Workers: workers, MorselRows: 512}
		if err := RunParallel([]*Pipeline{{Source: bsrc, Sink: bsink}, p}, par); err != nil {
			t.Fatal(err)
		}
		if got := longest.Load(); got > storage.BatchSize {
			t.Fatalf("workers=%d: a pipeline batch held %d rows, want <= %d", workers, got, storage.BatchSize)
		}
		if got := longest.Load(); got < storage.BatchSize {
			t.Fatalf("workers=%d: longest batch %d rows; the probe never filled one", workers, got)
		}
		const perGroup = (probeRows / groups) * (buildRows / groups)
		if got := probe.Matches(); got != groups*perGroup {
			t.Fatalf("workers=%d: %d matches, want %d", workers, got, groups*perGroup)
		}
		out := agg.HT
		if out.Len() != groups {
			t.Fatalf("workers=%d: %d groups, want %d", workers, out.Len(), groups)
		}
		for e := int32(0); e < int32(out.Len()); e++ {
			if n := out.Cell(e, 1); n != perGroup {
				t.Fatalf("workers=%d: group %d counted %d rows, want %d", workers, out.Cell(e, 0), n, perGroup)
			}
		}
	}
}
