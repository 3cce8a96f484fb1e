package exec

import (
	"fmt"
	"slices"
	"testing"

	"hashstash/internal/btree"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// materializeAll is the early-materialization reference: placed right
// after a source, it gathers every deferred column and hands on an
// eager batch without row ids, so every operator downstream sees the
// columns a scan gathered before late materialization.
type materializeAll struct{ schema storage.Schema }

func (m materializeAll) OutSchema() storage.Schema { return m.schema }

func (m materializeAll) Apply(in, out *storage.Batch) bool {
	n := in.Len()
	for c := range in.Cols {
		out.Cols[c].AppendRange(in.Materialize(c), 0, n)
	}
	return false
}

// chain returns a pipeline's transforms over src: the
// early-materialization reference first when early.
func chain(early bool, src Source, tfs ...Transform) []Transform {
	if early {
		return append([]Transform{materializeAll{src.Schema()}}, tfs...)
	}
	return tfs
}

// lateProbeTable is the probe side of the differentials: 3000 rows, 50
// groups.
var lateProbeTable = bigTable(3000, 50)

// lateBuildHT builds a hash table over the rows of a 1000-row table
// (alias "d") passing box, keyed on key and carrying the payload
// columns, through an early or late build pipeline.
func lateBuildHT(t *testing.T, early bool, par Parallelism, box expr.Box, key string, payload ...string) *hashtable.Table {
	t.Helper()
	cols := append([]string{key}, payload...)
	var boxes []expr.Box
	if box != nil {
		boxes = []expr.Box{box}
	}
	src, err := NewTableScan(bigTable(1000, 50), "d", boxes, cols)
	if err != nil {
		t.Fatal(err)
	}
	ht := hashtable.New(hashtable.Layout{Cols: src.Schema(), KeyCols: 1, Dict: bigDict})
	sink, err := NewBuildHT(ht, src.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Source: src, Transforms: chain(early, src), Sink: sink}
	if err := RunParallel([]*Pipeline{p}, par); err != nil {
		t.Fatal(err)
	}
	return ht
}

func bRef(col string) storage.ColRef { return storage.ColRef{Table: "b", Column: col} }
func dRef(col string) storage.ColRef { return storage.ColRef{Table: "d", Column: col} }

// lateCollect runs src through tfs into a collect of every column and
// returns the canonical (sorted) rows.
func lateCollect(t *testing.T, early bool, par Parallelism, src Source, tfs ...Transform) []string {
	t.Helper()
	tfs = chain(early, src, tfs...)
	schema := src.Schema()
	if len(tfs) > 0 {
		schema = tfs[len(tfs)-1].OutSchema()
	}
	collect := NewCollect(schema, nil, Order{})
	p := &Pipeline{Source: src, Transforms: tfs, Sink: collect}
	if err := RunParallel([]*Pipeline{p}, par); err != nil {
		t.Fatal(err)
	}
	return sortedRows(rowsOf(collect))
}

func mustScan(t *testing.T, boxes []expr.Box, cols ...string) *TableScan {
	t.Helper()
	src, err := NewTableScan(lateProbeTable, "b", boxes, cols)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func mustProbe(t *testing.T, ht *hashtable.Table, key storage.ColRef, emit []int, pf expr.Box, in storage.Schema) *Probe {
	t.Helper()
	p, err := NewProbe(ht, []storage.ColRef{key}, emit, nil, pf, in)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLateMaterializationMatchesEarly: every pipeline shape answers the
// same with late materialization (scans hand row ids downstream) as
// with the early-materialization reference after its source, at one
// and four workers.
func TestLateMaterializationMatchesEarly(t *testing.T) {
	valBox := func(lo, hi float64) expr.Box {
		return expr.NewBox(expr.Pred{Col: dRef("b_val"), Con: expr.IntervalConstraint(types.Float64,
			expr.Interval{HasLo: true, Lo: types.NewFloat(lo), LoIncl: true, HasHi: true, Hi: types.NewFloat(hi)})})
	}
	cases := []struct {
		name string
		run  func(t *testing.T, early bool, par Parallelism) []string
	}{
		{"multi-match chained probes", func(t *testing.T, early bool, par Parallelism) []string {
			// Each probe row matches the 20 build rows of its group;
			// the second probe repeats that on the first's output, so
			// ids compact twice and eager emitted columns gather.
			byGrp := lateBuildHT(t, early, par, nil, "b_grp", "b_key", "b_tag")
			byKey := lateBuildHT(t, early, par, nil, "b_key", "b_val")
			src := mustScan(t, []expr.Box{keyBox(100, 399)}, "b_key", "b_grp", "b_tag", "b_val")
			p1 := mustProbe(t, byGrp, bRef("b_grp"), []int{1, 2}, nil, src.Schema())
			p2 := mustProbe(t, byKey, dRef("b_key"), []int{1}, nil, p1.OutSchema())
			return lateCollect(t, early, par, src, p1, p2)
		}},
		{"miss-heavy index-scan probe", func(t *testing.T, early bool, par Parallelism) []string {
			// 10 % of the probe keys are in the table.
			ht := lateBuildHT(t, early, par, expr.NewBox(expr.Pred{Col: dRef("b_key"),
				Con: expr.IntervalConstraint(types.Int64, expr.Interval{HasHi: true, Hi: types.NewInt(300)})}), "b_key", "b_val")
			tree, err := btree.Build(lateProbeTable.Column("b_key"))
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewIndexScan(lateProbeTable, "b", tree, keyBox(0, 2999)[0].Con, nil, []string{"b_tag", "b_key", "b_val"})
			if err != nil {
				t.Fatal(err)
			}
			return lateCollect(t, early, par, src, mustProbe(t, ht, bRef("b_key"), []int{1}, nil, src.Schema()))
		}},
		{"string-key probe", func(t *testing.T, early bool, par Parallelism) []string {
			// Only the tags of the first three build rows are in the
			// table: the other probe tags match no entry.
			ht := lateBuildHT(t, early, par, expr.NewBox(expr.Pred{Col: dRef("b_key"),
				Con: expr.IntervalConstraint(types.Int64, expr.Interval{HasHi: true, Hi: types.NewInt(3)})}), "b_tag", "b_key")
			src := mustScan(t, nil, "b_key", "b_tag")
			return lateCollect(t, early, par, src, mustProbe(t, ht, bRef("b_tag"), []int{1}, nil, src.Schema()))
		}},
		{"post-filtered probe", func(t *testing.T, early bool, par Parallelism) []string {
			ht := lateBuildHT(t, early, par, nil, "b_grp", "b_val", "b_tag")
			src := mustScan(t, []expr.Box{keyBox(0, 199), keyBox(2500, 2599)}, "b_grp", "b_key", "b_tag")
			probe := mustProbe(t, ht, bRef("b_grp"), []int{1, 2}, valBox(100, 200), src.Schema())
			return lateCollect(t, early, par, src, probe)
		}},
		{"compute", func(t *testing.T, early bool, par Parallelism) []string {
			ht := lateBuildHT(t, early, par, nil, "b_key", "b_val")
			src := mustScan(t, []expr.Box{keyBox(500, 1500)}, "b_tag", "b_key", "b_val", "b_grp")
			probe := mustProbe(t, ht, bRef("b_key"), []int{1}, nil, src.Schema())
			// A deferred column times an eager (emitted) one, plus a
			// bare deferred column.
			e := &expr.Bin{Op: expr.OpAdd,
				L: &expr.Bin{Op: expr.OpMul, L: &expr.Col{Ref: bRef("b_val")}, R: &expr.Col{Ref: dRef("b_val")}},
				R: &expr.Col{Ref: bRef("b_grp")}}
			compute := NewCompute(e, storage.ColRef{Column: "x"}, probe.OutSchema())
			bare := NewCompute(&expr.Col{Ref: bRef("b_tag")}, storage.ColRef{Column: "tag"}, compute.OutSchema())
			return lateCollect(t, early, par, src, probe, compute, bare)
		}},
		{"build and aggregate sinks", func(t *testing.T, early bool, par Parallelism) []string {
			ht := lateBuildHT(t, early, par, nil, "b_grp", "b_val")
			src := mustScan(t, []expr.Box{keyBox(0, 999)}, "b_key", "b_grp", "b_tag", "b_val")
			probe := mustProbe(t, ht, bRef("b_grp"), []int{1}, nil, src.Schema())
			x := NewCompute(&expr.Bin{Op: expr.OpMul, L: &expr.Col{Ref: bRef("b_val")}, R: &expr.Const{V: types.NewFloat(2)}},
				storage.ColRef{Column: "x"}, probe.OutSchema())
			in := x.OutSchema()
			// BuildHT keyed on a deferred string column, carrying
			// deferred, eager and computed columns.
			built := hashtable.New(hashtable.Layout{Cols: storage.Schema{in[2], in[0], in[4], in[5]}, KeyCols: 1, Dict: bigDict})
			build, err := NewBuildHT(built, in, nil)
			if err != nil {
				t.Fatal(err)
			}
			// AggHT grouped by a deferred string column, folding a
			// computed, a deferred int and a deferred float column.
			agg := hashtable.New(hashtable.Layout{Cols: storage.Schema{in[2],
				{Ref: storage.ColRef{Column: "sum_x"}, Kind: types.Float64},
				{Ref: storage.ColRef{Column: "min_key"}, Kind: types.Int64},
				{Ref: storage.ColRef{Column: "max_val"}, Kind: types.Float64},
				{Ref: storage.ColRef{Column: "n"}, Kind: types.Int64},
			}, KeyCols: 1, Dict: bigDict})
			aggSink, err := NewAggHT(agg, []storage.ColRef{in[2].Ref}, []AggCell{
				{Func: expr.AggSum, InCol: 5, Kind: types.Float64},
				{Func: expr.AggMin, InCol: 0, Kind: types.Int64},
				{Func: expr.AggMax, InCol: 3, Kind: types.Float64},
				{Func: expr.AggCount, InCol: -1, Kind: types.Int64},
			}, in)
			if err != nil {
				t.Fatal(err)
			}
			for _, sink := range []Sink{build, aggSink} {
				p := &Pipeline{Source: src, Transforms: chain(early, src, probe, x), Sink: sink}
				if err := RunParallel([]*Pipeline{p}, par); err != nil {
					t.Fatal(err)
				}
			}
			return append(sortedRows(htRows(t, built)), sortedRows(htRows(t, agg))...)
		}},
		{"collect projection, duplicates and order", func(t *testing.T, early bool, par Parallelism) []string {
			src := mustScan(t, []expr.Box{keyBox(10, 2000)}, "b_key", "b_grp", "b_tag")
			s := src.Schema()
			var out []string
			for _, order := range []Order{{}, {Sort: true, Col: 1, Desc: true, Limit: 17}} {
				// Columns b_tag, b_key, b_tag: a projection that repeats
				// a column; sorted on the unique b_key.
				collect := NewCollect(storage.Schema{s[2], s[0], s[2]}, []int{2, 0, 2}, order)
				p := &Pipeline{Source: src, Transforms: chain(early, src), Sink: collect}
				if err := RunParallel([]*Pipeline{p}, par); err != nil {
					t.Fatal(err)
				}
				if order.Sort {
					out = append(out, fmt.Sprint(rowsOf(collect)))
				} else {
					out = append(out, sortedRows(rowsOf(collect))...)
				}
			}
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, par := range []Parallelism{{Workers: 1}, {Workers: 4, MorselRows: 256}} {
				early, late := tc.run(t, true, par), tc.run(t, false, par)
				if len(late) == 0 {
					t.Fatalf("workers=%d: empty answer", par.Workers)
				}
				if !slices.Equal(early, late) {
					for i := range min(len(early), len(late)) {
						if early[i] != late[i] {
							t.Fatalf("workers=%d: %d rows early, %d late; row %d early %q, late %q",
								par.Workers, len(early), len(late), i, early[i], late[i])
						}
					}
					t.Fatalf("workers=%d: %d rows early, %d late", par.Workers, len(early), len(late))
				}
			}
		})
	}
}

// TestScanDefersEveryColumn: a scan batch carries row ids and gathers
// nothing; a probe reads only its key, compacts the ids and passes the
// other columns through deferred.
func TestScanDefersEveryColumn(t *testing.T) {
	src := mustScan(t, []expr.Box{keyBox(0, 49)}, "b_key", "b_grp", "b_tag")
	cursors, err := src.Morsels(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := storage.NewBatch(src.Schema())
	cursors[0].Open()
	if !cursors[0].Next(in) {
		t.Fatal("scan emitted nothing")
	}
	ids, ok := in.IDs()
	if !ok || len(ids) != 50 || in.Len() != 50 {
		t.Fatalf("scan batch: %d ids (ok=%v), Len %d; want 50", len(ids), ok, in.Len())
	}
	for c := range in.Cols {
		if in.Base(c) == nil || in.Cols[c].Len() != 0 {
			t.Fatalf("column %d: base %v, %d gathered rows; want deferred, none gathered", c, in.Base(c), in.Cols[c].Len())
		}
	}
	ht := hashtable.New(hashtable.Layout{Cols: storage.Schema{{Ref: dRef("k"), Kind: types.Int64}}, KeyCols: 1})
	for _, k := range []uint64{3, 7, 7} { // key 7 matches twice
		ht.Insert([]uint64{k})
	}
	probe := mustProbe(t, ht, bRef("b_grp"), nil, nil, src.Schema())
	out := storage.NewBatch(probe.OutSchema())
	probe.Apply(in, out)
	// Rows 3 and 7 (grp 3 and 7), row 7 twice.
	outIDs, _ := out.IDs()
	if want := []int32{3, 7, 7}; !slices.Equal(outIDs, want) {
		t.Fatalf("probe ids %v, want %v", outIDs, want)
	}
	if in.Cols[0].Len() != 0 || in.Cols[2].Len() != 0 {
		t.Error("probe gathered a column it does not read")
	}
	for c := range out.Cols {
		if out.Base(c) == nil {
			t.Errorf("probe output column %d is not deferred", c)
		}
	}
	tags := out.Materialize(2)
	if got := []string{tags.Value(0).S, tags.Value(1).S, tags.Value(2).S}; tags.Len() != 3 || !slices.Equal(got, []string{"t3", "t0", "t0"}) {
		t.Errorf("materialized tags %v", got)
	}
}
