package exec

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"hashstash/internal/btree"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// bigDict codes the tag column of every bigTable, as one catalog's
// dictionary would, so tables built apart join on their tags. It holds
// every tag before any test runs: building a table only reads it.
var bigDict = func() *storage.Dict {
	d := storage.NewDict()
	for i := range 7 {
		d.Intern(fmt.Sprintf("t%d", i))
	}
	return d
}()

// bigTable builds an n-row table: key 0..n-1, grp = key%groups,
// val = key*0.5, tag = "t<key%7>".
func bigTable(n, groups int) *storage.Table {
	key := storage.NewColumn("b_key", types.Int64)
	grp := storage.NewColumn("b_grp", types.Int64)
	val := storage.NewColumn("b_val", types.Float64)
	tag := &storage.Column{Name: "b_tag", Kind: types.String, Dict: bigDict}
	for i := 0; i < n; i++ {
		key.Ints = append(key.Ints, int64(i))
		grp.Ints = append(grp.Ints, int64(i%groups))
		val.Floats = append(val.Floats, float64(i)*0.5)
		tag.Append(types.NewString(fmt.Sprintf("t%d", i%7)))
	}
	return storage.NewTable("big", key, grp, val, tag)
}

func keyBox(lo, hi int64) expr.Box {
	return expr.NewBox(expr.Pred{
		Col: storage.ColRef{Table: "b", Column: "b_key"},
		Con: expr.IntervalConstraint(types.Int64, expr.Interval{
			HasLo: true, Lo: types.NewInt(lo), LoIncl: true,
			HasHi: true, Hi: types.NewInt(hi), HiIncl: true,
		}),
	})
}

// sortedRows canonicalizes a collected result for order-independent
// comparison (parallel merge order is worker-dependent).
func sortedRows(rows [][]types.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		s := ""
		for _, v := range row {
			s += v.String() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func assertSameRows(t *testing.T, serial, parallel [][]types.Value) {
	t.Helper()
	s, p := sortedRows(serial), sortedRows(parallel)
	if len(s) != len(p) {
		t.Fatalf("row count: serial %d, parallel %d", len(s), len(p))
	}
	for i := range s {
		if s[i] != p[i] {
			t.Fatalf("row %d: serial %q != parallel %q", i, s[i], p[i])
		}
	}
}

// refRowIDs is the per-row reference of a table scan: for each box in
// order, the ids of the rows whose values pass every predicate
// (Constraint.MatchInt, or MatchString on string columns).
func refRowIDs(tbl *storage.Table, boxes []expr.Box) []int64 {
	if len(boxes) == 0 {
		boxes = []expr.Box{nil}
	}
	var ids []int64
	for _, box := range boxes {
		for row := 0; row < tbl.NumRows(); row++ {
			ok := true
			for _, p := range box {
				col := tbl.Column(p.Col.Column)
				if col.Kind == types.String {
					ok = ok && p.Con.MatchString(col.Value(row).S)
				} else {
					ok = ok && p.Con.MatchInt(col.Ints[row])
				}
			}
			if ok {
				ids = append(ids, int64(row))
			}
		}
	}
	return ids
}

// TestTableScanMorselsCoverAllRows: the morsels of a scan — sequential
// or index-driven — together emit exactly the rows a per-row reference
// keeps, whether drained directly or run through RunParallel at one and
// four workers; at one worker they arrive in scan order (box order, or
// index-key order).
func TestTableScanMorselsCoverAllRows(t *testing.T) {
	tbl := bigTable(10_000, 10)
	keyTree, err := btree.Build(tbl.Column("b_key"))
	if err != nil {
		t.Fatal(err)
	}
	tagTree, err := btree.Build(tbl.Column("b_tag"))
	if err != nil {
		t.Fatal(err)
	}
	tagIn := expr.NewBox(expr.Pred{
		Col: storage.ColRef{Table: "b", Column: "b_tag"},
		Con: expr.SetConstraint("t1", "t3", "t5"),
	})
	for _, tc := range []struct {
		name  string
		boxes []expr.Box
		// tree drives an index scan by the predicate of boxes[0] on
		// column drive; the rest of boxes[0] is its residual.
		tree    *btree.Tree
		drive   string
		minRuns int
	}{
		{name: "full"},
		{name: "indexed", boxes: []expr.Box{keyBox(1000, 8999)}, tree: keyTree, drive: "b_key", minRuns: 1},
		{name: "twoBoxes", boxes: []expr.Box{keyBox(0, 999), keyBox(9000, 9999)}},
		{name: "inSet", boxes: []expr.Box{tagIn.Intersect(keyBox(0, 7999))}, tree: tagTree, drive: "b_tag", minRuns: 3},
		{name: "emptyBetween", boxes: []expr.Box{keyBox(0, 1999), keyBox(50, 40), keyBox(8000, 9999)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := refRowIDs(tbl, tc.boxes)
			if tc.tree != nil {
				// Index order: by key, ties in row order.
				col := tbl.Column(tc.drive)
				sort.SliceStable(want, func(i, j int) bool {
					if col.Kind == types.String {
						return col.Value(int(want[i])).S < col.Value(int(want[j])).S
					}
					return col.Ints[want[i]] < col.Ints[want[j]]
				})
			}
			if len(want) == 0 {
				t.Fatal("reference selects no rows")
			}
			mk := func() Source {
				if tc.tree == nil {
					src, err := NewTableScan(tbl, "b", tc.boxes, []string{"b_key"})
					if err != nil {
						t.Fatal(err)
					}
					return src
				}
				var driving expr.Constraint
				var residual expr.Box
				for _, p := range tc.boxes[0] {
					if p.Col.Column == tc.drive {
						driving = p.Con
					} else {
						residual = append(residual, p)
					}
				}
				src, err := NewIndexScan(tbl, "b", tc.tree, driving, residual, []string{"b_key"})
				if err != nil {
					t.Fatal(err)
				}
				if len(src.runs) < tc.minRuns {
					t.Fatalf("index scan resolved %d runs, want >= %d", len(src.runs), tc.minRuns)
				}
				return src
			}
			ids := func(rows [][]types.Value) []int64 {
				out := make([]int64, len(rows))
				for i, row := range rows {
					out[i] = row[0].I
				}
				return out
			}

			src := mk()
			cursors, err := src.Morsels(1024, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(cursors) < 2 {
				t.Fatalf("expected several morsels, got %d", len(cursors))
			}
			var got []int64
			out := storage.NewBatch(src.Schema())
			for _, c := range cursors {
				c.Open()
				for out.Reset(); c.Next(out); out.Reset() {
					got = append(got, out.Materialize(0).Ints...)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("morsels emit %d rows, reference %d (or order differs)", len(got), len(want))
			}

			for _, workers := range []int{1, 4} {
				src := mk()
				collect := NewCollect(src.Schema(), nil, Order{})
				p := &Pipeline{Source: src, Sink: collect}
				if err := RunParallel([]*Pipeline{p}, Parallelism{Workers: workers, MorselRows: 1024}); err != nil {
					t.Fatal(err)
				}
				got := ids(rowsOf(collect))
				if workers > 1 {
					slices.Sort(got)
					want := slices.Clone(want)
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Fatalf("workers=%d: %d rows, reference %d", workers, len(got), len(want))
					}
				} else if !slices.Equal(got, want) {
					t.Fatalf("workers=1: %d rows, reference %d (or order differs)", len(got), len(want))
				}
			}
		})
	}
}

// scanAggPipeline compiles SELECT b_grp, SUM(b_val), COUNT(*), MIN(b_key),
// MAX(b_key) FROM big WHERE key in box GROUP BY b_grp into a pipeline.
func scanAggPipeline(t *testing.T, tbl *storage.Table, boxes []expr.Box) (*Pipeline, *hashtable.Table) {
	t.Helper()
	src, err := NewTableScan(tbl, "b", boxes, []string{"b_key", "b_grp", "b_val"})
	if err != nil {
		t.Fatal(err)
	}
	grpRef := storage.ColRef{Table: "b", Column: "b_grp"}
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: grpRef, Kind: types.Int64},
			{Ref: storage.ColRef{Column: "sum_val"}, Kind: types.Float64},
			{Ref: storage.ColRef{Column: "cnt"}, Kind: types.Int64},
			{Ref: storage.ColRef{Column: "min_key"}, Kind: types.Int64},
			{Ref: storage.ColRef{Column: "max_key"}, Kind: types.Int64},
		},
		KeyCols: 1,
	}
	ht := hashtable.New(layout)
	schema := src.Schema()
	aggs := []AggCell{
		{Func: expr.AggSum, InCol: schema.MustIndexOf(storage.ColRef{Table: "b", Column: "b_val"}), Kind: types.Float64},
		{Func: expr.AggCount, InCol: -1, Kind: types.Int64},
		{Func: expr.AggMin, InCol: schema.MustIndexOf(storage.ColRef{Table: "b", Column: "b_key"}), Kind: types.Int64},
		{Func: expr.AggMax, InCol: schema.MustIndexOf(storage.ColRef{Table: "b", Column: "b_key"}), Kind: types.Int64},
	}
	sink, err := NewAggHT(ht, []storage.ColRef{grpRef}, aggs, schema)
	if err != nil {
		t.Fatal(err)
	}
	return &Pipeline{Source: src, Transforms: nil, Sink: sink}, ht
}

func htRows(t *testing.T, ht *hashtable.Table) [][]types.Value {
	t.Helper()
	n := len(ht.Layout().Cols)
	src, err := NewHTScan(ht, identityColsTest(n), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rowsOf(runToCollect(t, src))
}

func identityColsTest(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelScanAggMatchesSerial(t *testing.T) {
	tbl := bigTable(50_000, 37)
	serialP, serialHT := scanAggPipeline(t, tbl, nil)
	if err := RunParallel([]*Pipeline{serialP}, Parallelism{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	parP, parHT := scanAggPipeline(t, tbl, nil)
	if err := RunParallel([]*Pipeline{parP}, Parallelism{Workers: 4, MorselRows: 4096}); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, htRows(t, serialHT), htRows(t, parHT))

	sIn, sOut := serialP.Stats()
	pIn, pOut := parP.Stats()
	if sIn != pIn || sOut != pOut {
		t.Fatalf("row counters: serial %d/%d, parallel %d/%d", sIn, sOut, pIn, pOut)
	}
	sSink, pSink := serialP.Sink.(*AggHT), parP.Sink.(*AggHT)
	if sSink.Inserted() != pSink.Inserted() || sSink.Updated() != pSink.Updated() {
		t.Fatalf("sink counters: serial %d/%d, parallel %d/%d",
			sSink.Inserted(), sSink.Updated(), pSink.Inserted(), pSink.Updated())
	}
}

// TestParallelBuildProbeMatchesSerial parallelizes a join build over a
// string-keyed table (per-worker partials whose string codes merge as
// they are) and probes it from a parallel pipeline.
func TestParallelBuildProbeMatchesSerial(t *testing.T) {
	tbl := bigTable(20_000, 11)

	run := func(par Parallelism) ([][]types.Value, *Pipeline, *Pipeline) {
		bsrc, err := NewTableScan(tbl, "b", nil, []string{"b_tag", "b_val"})
		if err != nil {
			t.Fatal(err)
		}
		tagRef := storage.ColRef{Table: "b", Column: "b_tag"}
		valRef := storage.ColRef{Table: "b", Column: "b_val"}
		layout := hashtable.Layout{
			Cols: []storage.ColMeta{
				{Ref: tagRef, Kind: types.String},
				{Ref: valRef, Kind: types.Float64},
			},
			KeyCols: 1,
			Dict:    bigDict,
		}
		ht := hashtable.New(layout)
		bsink, err := NewBuildHT(ht, bsrc.Schema(), nil)
		if err != nil {
			t.Fatal(err)
		}
		build := &Pipeline{Source: bsrc, Sink: bsink}

		// Probe side: distinct tags 0..6 via a small scan of the same
		// table restricted to the first 7 rows.
		psrc, err := NewTableScan(tbl, "b", []expr.Box{keyBox(0, 6)}, []string{"b_key", "b_tag"})
		if err != nil {
			t.Fatal(err)
		}
		probe, err := NewProbe(ht, []storage.ColRef{tagRef}, []int{1}, nil, nil, psrc.Schema())
		if err != nil {
			t.Fatal(err)
		}
		collect := NewCollect(probe.OutSchema(), nil, Order{})
		probeP := &Pipeline{Source: psrc, Transforms: []Transform{probe}, Sink: collect}
		if err := RunParallel([]*Pipeline{build, probeP}, par); err != nil {
			t.Fatal(err)
		}
		return rowsOf(collect), build, probeP
	}

	serialRows, sb, _ := run(Parallelism{Workers: 1})
	parRows, pb, _ := run(Parallelism{Workers: 4, MorselRows: 2048})
	assertSameRows(t, serialRows, parRows)
	if got, want := pb.Sink.(*BuildHT).Inserted(), sb.Sink.(*BuildHT).Inserted(); got != want {
		t.Fatalf("parallel build inserted %d, want %d", got, want)
	}
}

// TestParallelHTScan splits a cached-table readout into entry-range
// morsels.
func TestParallelHTScan(t *testing.T) {
	tbl := bigTable(30_000, 5000)
	p, ht := scanAggPipeline(t, tbl, nil)
	if err := RunParallel([]*Pipeline{p}, Parallelism{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	serial := htRows(t, ht)

	src, err := NewHTScan(ht, identityColsTest(len(ht.Layout().Cols)), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	collect := NewCollect(src.Schema(), nil, Order{})
	scanP := &Pipeline{Source: src, Sink: collect}
	if err := RunParallel([]*Pipeline{scanP}, Parallelism{Workers: 4, MorselRows: 512}); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, serial, rowsOf(collect))
}

// TestParallelFallbacks: unsplittable setups must still execute
// correctly through the serial path.
func TestParallelFallbacks(t *testing.T) {
	tbl := bigTable(100, 10)
	// Tiny input → single morsel → one task.
	p, ht := scanAggPipeline(t, tbl, nil)
	if err := RunParallel([]*Pipeline{p}, Parallelism{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	if len(htRows(t, ht)) != 10 {
		t.Fatalf("fallback produced %d groups, want 10", len(htRows(t, ht)))
	}

	// Collect sinks merge per-worker partials; a tiny input still
	// collapses to one morsel and must stay correct through the
	// single-task path.
	src, err := NewTableScan(tbl, "b", nil, []string{"b_key"})
	if err != nil {
		t.Fatal(err)
	}
	collect := NewCollect(src.Schema(), nil, Order{})
	if err := RunParallel([]*Pipeline{{Source: src, Sink: collect}}, Parallelism{Workers: 4, MorselRows: 16}); err != nil {
		t.Fatal(err)
	}
	if len(rowsOf(collect)) != 100 {
		t.Fatalf("collect has %d rows, want 100", len(rowsOf(collect)))
	}
}
