package exec

import (
	"errors"
	"strings"
	"testing"

	"hashstash/hashstasherr"
	"hashstash/internal/btree"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// ordersTable builds a small orders-like table:
// okey 1..10, custkey = okey%3, date = okey*10, price = okey*1.5
func ordersTable() *storage.Table {
	okey := storage.NewColumn("o_orderkey", types.Int64)
	ckey := storage.NewColumn("o_custkey", types.Int64)
	date := storage.NewColumn("o_orderdate", types.Date)
	price := storage.NewColumn("o_totalprice", types.Float64)
	for i := int64(1); i <= 10; i++ {
		okey.Ints = append(okey.Ints, i)
		ckey.Ints = append(ckey.Ints, i%3)
		date.Ints = append(date.Ints, i*10)
		price.Floats = append(price.Floats, float64(i)*1.5)
	}
	return storage.NewTable("orders", okey, ckey, date, price)
}

func dateBox(alias string, lo, hi int64) expr.Box {
	return expr.NewBox(expr.Pred{
		Col: storage.ColRef{Table: alias, Column: "o_orderdate"},
		Con: expr.IntervalConstraint(types.Date, expr.Interval{
			HasLo: true, Lo: types.NewDate(lo), LoIncl: true,
			HasHi: true, Hi: types.NewDate(hi), HiIncl: true,
		}),
	})
}

func runToCollect(t *testing.T, src Source, transforms ...Transform) *Collect {
	t.Helper()
	schema := src.Schema()
	if len(transforms) > 0 {
		schema = transforms[len(transforms)-1].OutSchema()
	}
	sink := NewCollect(schema, nil, Order{})
	p := &Pipeline{Source: src, Transforms: transforms, Sink: sink}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return sink
}

// drainSource streams every cursor of src, in order, into one batch.
func drainSource(t *testing.T, src Source) *storage.Batch {
	t.Helper()
	cursors, err := src.Morsels(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	all := storage.NewBatch(src.Schema())
	out := storage.NewBatch(src.Schema())
	for _, c := range cursors {
		c.Open()
		for out.Reset(); c.Next(out); out.Reset() {
			for i := range all.Cols {
				all.Cols[i].AppendRange(out.Materialize(i), 0, out.Len())
			}
		}
	}
	return all
}

// TestTableScanIndexAndFullAgree: an index-driven scan over a btree on
// the filtered column returns the sequential scan's rows.
func TestTableScanIndexAndFullAgree(t *testing.T) {
	tbl := ordersTable()
	box := dateBox("o", 30, 70)
	cols := []string{"o_orderkey", "o_orderdate"}
	scan, err := NewTableScan(tbl, "o", []expr.Box{box}, cols)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := btree.Build(tbl.Column("o_orderdate"))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndexScan(tbl, "o", tree, box[0].Con, nil, cols)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]Source{"scan": scan, "index": idx} {
		got := runToCollect(t, src)
		if len(rowsOf(got)) != 5 { // dates 30,40,50,60,70
			t.Fatalf("%s: %d rows, want 5", name, len(rowsOf(got)))
		}
		for _, row := range rowsOf(got) {
			if row[1].I < 30 || row[1].I > 70 {
				t.Fatalf("%s: date %d out of range", name, row[1].I)
			}
		}
	}
}

func TestTableScanMultipleBoxes(t *testing.T) {
	tbl := ordersTable()
	// Disjoint residual boxes (partial-reuse shape): [10,20] and [90,100].
	boxes := []expr.Box{dateBox("o", 10, 20), dateBox("o", 90, 100)}
	src, err := NewTableScan(tbl, "o", boxes, []string{"o_orderkey"})
	if err != nil {
		t.Fatal(err)
	}
	got := runToCollect(t, src)
	if len(rowsOf(got)) != 4 { // keys 1,2,9,10
		t.Fatalf("%d rows, want 4", len(rowsOf(got)))
	}
	if src.RowsScanned() == 0 {
		t.Error("RowsScanned not counted")
	}
}

func TestTableScanResidualPredicate(t *testing.T) {
	tbl := ordersTable()
	// Date range + custkey filter.
	box := dateBox("o", 10, 100).Intersect(expr.NewBox(expr.Pred{
		Col: storage.ColRef{Table: "o", Column: "o_custkey"},
		Con: expr.IntervalConstraint(types.Int64, expr.PointInterval(types.NewInt(1))),
	}))
	src, err := NewTableScan(tbl, "o", []expr.Box{box}, []string{"o_orderkey", "o_custkey"})
	if err != nil {
		t.Fatal(err)
	}
	got := runToCollect(t, src)
	if len(rowsOf(got)) != 4 { // custkey==1: orderkeys 1,4,7,10
		t.Fatalf("%d rows, want 4", len(rowsOf(got)))
	}
	for _, row := range rowsOf(got) {
		if row[1].I != 1 {
			t.Fatalf("custkey = %d", row[1].I)
		}
	}
}

func TestTableScanEmptyBoxSkipped(t *testing.T) {
	tbl := ordersTable()
	empty := dateBox("o", 50, 40)
	src, err := NewTableScan(tbl, "o", []expr.Box{empty}, []string{"o_orderkey"})
	if err != nil {
		t.Fatal(err)
	}
	if got := runToCollect(t, src); len(rowsOf(got)) != 0 {
		t.Fatalf("%d rows from empty box", len(rowsOf(got)))
	}
}

// TestScanBoxOnMissingColumn: a box on a column the table lacks fails
// the run with a plain error at every worker count, for the table scan
// and the shared scan alike — no panic, no silently empty result.
func TestScanBoxOnMissingColumn(t *testing.T) {
	tbl := bigTable(5000, 10)
	bad := expr.NewBox(expr.Pred{
		Col: storage.ColRef{Table: "b", Column: "b_nope"},
		Con: expr.IntervalConstraint(types.Int64, expr.PointInterval(types.NewInt(1))),
	})
	boxes := []expr.Box{keyBox(0, 99), bad}
	mks := map[string]func() (Source, error){
		"table":  func() (Source, error) { return NewTableScan(tbl, "b", boxes, []string{"b_key"}) },
		"shared": func() (Source, error) { return NewSharedScan(tbl, "b", boxes, []string{"b_key"}) },
	}
	for name, mk := range mks {
		for _, workers := range []int{1, 4} {
			src, err := mk()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			collect := NewCollect(src.Schema(), nil, Order{})
			err = RunParallel([]*Pipeline{{Source: src, Sink: collect}}, Parallelism{Workers: workers, MorselRows: 1024})
			if err == nil {
				t.Fatalf("%s workers=%d: no error (%d rows)", name, workers, len(rowsOf(collect)))
			}
			if errors.Is(err, hashstasherr.ErrInternal) || !strings.Contains(err.Error(), "b_nope") {
				t.Fatalf("%s workers=%d: want a resolution error naming b_nope, got %v", name, workers, err)
			}
		}
	}
}

func TestTableScanBadColumn(t *testing.T) {
	tbl := ordersTable()
	if _, err := NewTableScan(tbl, "o", nil, []string{"nope"}); err == nil {
		t.Error("bad column accepted")
	}
}

func TestFilterTransform(t *testing.T) {
	tbl := ordersTable()
	src, err := NewTableScan(tbl, "o", nil, []string{"o_orderkey", "o_orderdate"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFilter(dateBox("o", 40, 60), src.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := runToCollect(t, src, f)
	if len(rowsOf(got)) != 3 {
		t.Fatalf("%d rows, want 3", len(rowsOf(got)))
	}
}

func TestFilterBadColumn(t *testing.T) {
	if _, err := NewFilter(dateBox("x", 1, 2), storage.Schema{}, nil); err == nil {
		t.Error("unbound filter accepted")
	}
}

func TestComputeTransform(t *testing.T) {
	tbl := ordersTable()
	src, err := NewTableScan(tbl, "o", nil, []string{"o_totalprice"})
	if err != nil {
		t.Fatal(err)
	}
	double := &expr.Bin{Op: expr.OpMul,
		L: &expr.Col{Ref: storage.ColRef{Table: "o", Column: "o_totalprice"}},
		R: &expr.Const{V: types.NewFloat(2)}}
	c := NewCompute(double, storage.ColRef{Column: "dbl"}, src.Schema())
	got := runToCollect(t, src, c)
	if len(rowsOf(got)) != 10 {
		t.Fatalf("%d rows", len(rowsOf(got)))
	}
	for _, row := range rowsOf(got) {
		if row[1].F != row[0].F*2 {
			t.Fatalf("dbl=%f price=%f", row[1].F, row[0].F)
		}
	}
	if c.OutSchema().IndexOf(storage.ColRef{Column: "dbl"}) != 1 {
		t.Error("compute schema missing output column")
	}
}

// buildOrdersHT builds a join hash table over orders keyed by custkey,
// carrying orderkey and orderdate.
func buildOrdersHT(t *testing.T, tbl *storage.Table, box expr.Box) *hashtable.Table {
	t.Helper()
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "o", Column: "o_custkey"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "o", Column: "o_orderkey"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "o", Column: "o_orderdate"}, Kind: types.Date},
		},
		KeyCols: 1,
	}
	ht := hashtable.New(layout)
	var boxes []expr.Box
	if box != nil {
		boxes = []expr.Box{box}
	}
	src, err := NewTableScan(tbl, "o", boxes, []string{"o_custkey", "o_orderkey", "o_orderdate"})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewBuildHT(ht, src.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Source: src, Sink: sink}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return ht
}

// custTable: custkey 0..2 with names.
func custTable() *storage.Table {
	ckey := storage.NewColumn("c_custkey", types.Int64)
	name := storage.NewColumn("c_name", types.String)
	for i := int64(0); i <= 2; i++ {
		ckey.Ints = append(ckey.Ints, i)
		name.Append(types.NewString("cust" + string(rune('A'+i))))
	}
	return storage.NewTable("customer", ckey, name)
}

func TestBuildAndProbeJoin(t *testing.T) {
	orders := ordersTable()
	ht := buildOrdersHT(t, orders, nil)
	if ht.Len() != 10 {
		t.Fatalf("build inserted %d", ht.Len())
	}

	cust := custTable()
	src, err := NewTableScan(cust, "c", nil, []string{"c_custkey", "c_name"})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewProbe(ht,
		[]storage.ColRef{{Table: "c", Column: "c_custkey"}},
		[]int{1, 2}, nil, nil, src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	got := runToCollect(t, src, probe)
	// Each order joins its customer exactly once: 10 result rows.
	if len(rowsOf(got)) != 10 {
		t.Fatalf("join produced %d rows, want 10", len(rowsOf(got)))
	}
	if probe.Matches() != 10 {
		t.Errorf("Matches = %d", probe.Matches())
	}
	// Verify the join is correct: orderkey%3 == custkey.
	okeyIdx := got.Schema.MustIndexOf(storage.ColRef{Table: "o", Column: "o_orderkey"})
	ckeyIdx := got.Schema.MustIndexOf(storage.ColRef{Table: "c", Column: "c_custkey"})
	for _, row := range rowsOf(got) {
		if row[okeyIdx].I%3 != row[ckeyIdx].I {
			t.Fatalf("bad join row: %v", row)
		}
	}
}

func TestProbePostFilter(t *testing.T) {
	orders := ordersTable()
	// Cached HT holds ALL orders; the query wants only dates [30,70]:
	// subsuming reuse → post-filter at probe time.
	ht := buildOrdersHT(t, orders, nil)
	cust := custTable()
	src, err := NewTableScan(cust, "c", nil, []string{"c_custkey"})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewProbe(ht,
		[]storage.ColRef{{Table: "c", Column: "c_custkey"}},
		[]int{1}, nil, dateBox("o", 30, 70), src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	got := runToCollect(t, src, probe)
	if len(rowsOf(got)) != 5 {
		t.Fatalf("post-filtered join produced %d rows, want 5", len(rowsOf(got)))
	}
	if probe.FilteredOut() != 5 {
		t.Errorf("FilteredOut = %d, want 5", probe.FilteredOut())
	}
}

// TestProbeStringKeyMiss: a probe key string that no build row holds
// matches nothing, and probing adds nothing to the dictionary.
func TestProbeStringKeyMiss(t *testing.T) {
	dict := storage.NewDict()
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "p", Column: "p_brand"}, Kind: types.String},
			{Ref: storage.ColRef{Table: "p", Column: "p_partkey"}, Kind: types.Int64},
		},
		KeyCols: 1,
		Dict:    dict,
	}
	ht := hashtable.New(layout)
	ht.Insert([]uint64{ht.EncodeValue(types.NewString("Brand#11")), 1})

	seg := &storage.Column{Name: "p_brand", Kind: types.String, Dict: dict}
	seg.Append(types.NewString("Brand#99"))
	seg.Append(types.NewString("Brand#11"))
	before := dict.Len()
	tbl := storage.NewTable("probe", seg)
	src, err := NewTableScan(tbl, "x", nil, []string{"p_brand"})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewProbe(ht, []storage.ColRef{{Table: "x", Column: "p_brand"}}, []int{1}, nil, nil, src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	got := runToCollect(t, src, probe)
	if len(rowsOf(got)) != 1 {
		t.Fatalf("string probe rows = %d, want 1", len(rowsOf(got)))
	}
	if dict.Len() != before {
		t.Error("probe grew the dictionary")
	}
}

func TestAggHTSink(t *testing.T) {
	orders := ordersTable()
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "o", Column: "o_custkey"}, Kind: types.Int64},
			{Ref: storage.ColRef{Column: "sum_price"}, Kind: types.Float64},
			{Ref: storage.ColRef{Column: "cnt"}, Kind: types.Int64},
			{Ref: storage.ColRef{Column: "min_date"}, Kind: types.Int64},
			{Ref: storage.ColRef{Column: "max_date"}, Kind: types.Int64},
		},
		KeyCols: 1,
	}
	ht := hashtable.New(layout)
	src, err := NewTableScan(orders, "o", nil, []string{"o_custkey", "o_totalprice", "o_orderdate"})
	if err != nil {
		t.Fatal(err)
	}
	schema := src.Schema()
	sink, err := NewAggHT(ht,
		[]storage.ColRef{{Table: "o", Column: "o_custkey"}},
		[]AggCell{
			{Func: expr.AggSum, InCol: schema.MustIndexOf(storage.ColRef{Table: "o", Column: "o_totalprice"}), Kind: types.Float64},
			{Func: expr.AggCount, InCol: -1, Kind: types.Int64},
			{Func: expr.AggMin, InCol: schema.MustIndexOf(storage.ColRef{Table: "o", Column: "o_orderdate"}), Kind: types.Int64},
			{Func: expr.AggMax, InCol: schema.MustIndexOf(storage.ColRef{Table: "o", Column: "o_orderdate"}), Kind: types.Int64},
		}, schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Pipeline{Source: src, Sink: sink}).Run(); err != nil {
		t.Fatal(err)
	}
	if ht.Len() != 3 {
		t.Fatalf("groups = %d, want 3", ht.Len())
	}
	if sink.Inserted() != 3 || sink.Updated() != 7 {
		t.Errorf("inserted=%d updated=%d", sink.Inserted(), sink.Updated())
	}
	// Verify group custkey=1: orders 1,4,7,10 → sum=1.5*(1+4+7+10)=33,
	// count=4, min date=10, max date=100.
	e, found := ht.Upsert([]uint64{1})
	if !found {
		t.Fatal("group 1 missing")
	}
	if sum := types.FromBits(types.Float64, ht.Cell(e, 1)).F; sum != 33 {
		t.Errorf("sum = %f", sum)
	}
	if cnt := ht.Cell(e, 2); cnt != 4 {
		t.Errorf("count = %d", cnt)
	}
	if mind := int64(ht.Cell(e, 3)); mind != 10 {
		t.Errorf("min = %d", mind)
	}
	if maxd := int64(ht.Cell(e, 4)); maxd != 100 {
		t.Errorf("max = %d", maxd)
	}
}

func TestAggHTValidation(t *testing.T) {
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "o", Column: "o_custkey"}, Kind: types.Int64},
			{Ref: storage.ColRef{Column: "x"}, Kind: types.Float64},
		},
		KeyCols: 1,
	}
	schema := storage.Schema{{Ref: storage.ColRef{Table: "o", Column: "o_custkey"}, Kind: types.Int64}}
	// Non-count aggregate over * rejected.
	if _, err := NewAggHT(hashtable.New(layout), []storage.ColRef{{Table: "o", Column: "o_custkey"}},
		[]AggCell{{Func: expr.AggSum, InCol: -1, Kind: types.Float64}}, schema); err == nil {
		t.Error("SUM(*) accepted")
	}
	// Layout arity mismatch rejected.
	if _, err := NewAggHT(hashtable.New(layout), nil,
		[]AggCell{{Func: expr.AggCount, InCol: -1, Kind: types.Int64}}, schema); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestHTScanWithPostFilter(t *testing.T) {
	orders := ordersTable()
	ht := buildOrdersHT(t, orders, nil)
	src, err := NewHTScan(ht, []int{1, 2}, nil, dateBox("o", 30, 70))
	if err != nil {
		t.Fatal(err)
	}
	got := runToCollect(t, src)
	if len(rowsOf(got)) != 5 {
		t.Fatalf("%d rows, want 5", len(rowsOf(got)))
	}
	if src.FilteredOut() != 5 {
		t.Errorf("FilteredOut = %d", src.FilteredOut())
	}
	// Post-filter on a column not in the layout errors.
	if _, err := NewHTScan(ht, []int{0}, nil, expr.NewBox(expr.Pred{
		Col: storage.ColRef{Table: "z", Column: "zz"},
		Con: expr.IntervalConstraint(types.Int64, expr.FullInterval()),
	})); err == nil {
		t.Error("bad post-filter accepted")
	}
	if _, err := NewHTScan(ht, []int{99}, nil, nil); err == nil {
		t.Error("bad out col accepted")
	}
}

func TestMultiSink(t *testing.T) {
	orders := ordersTable()
	src, err := NewTableScan(orders, "o", nil, []string{"o_orderkey", "o_totalprice"})
	if err != nil {
		t.Fatal(err)
	}
	ht := hashtable.New(hashtable.Layout{Cols: src.Schema(), KeyCols: 1})
	build, err := NewBuildHT(ht, src.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	collect := NewCollect(src.Schema(), nil, Order{})
	p := &Pipeline{Source: src, Sink: &Multi{Sinks: []Sink{build, collect}}}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if ht.Len() != 10 || len(rowsOf(collect)) != 10 {
		t.Fatalf("build=%d collect=%d", ht.Len(), len(rowsOf(collect)))
	}
	if p.RowsIn != 10 || p.RowsOut != 10 {
		t.Errorf("pipeline stats in=%d out=%d", p.RowsIn, p.RowsOut)
	}
}

func TestSharedScanAndReTag(t *testing.T) {
	orders := ordersTable()
	// Three queries with different date windows.
	boxes := []expr.Box{
		dateBox("o", 10, 40),  // q0: orders 1-4
		dateBox("o", 30, 60),  // q1: orders 3-6
		dateBox("o", 90, 100), // q2: orders 9-10
	}
	src, err := NewSharedScan(orders, "o", boxes, []string{"o_orderkey", "o_custkey", "o_orderdate"})
	if err != nil {
		t.Fatal(err)
	}
	got := runToCollect(t, src)
	// Union covers orders 1-6, 9, 10 → 8 rows.
	if len(rowsOf(got)) != 8 {
		t.Fatalf("shared scan rows = %d, want 8", len(rowsOf(got)))
	}
	qidIdx := got.Schema.MustIndexOf(QidRef())
	masks := map[int64]uint64{}
	okIdx := got.Schema.MustIndexOf(storage.ColRef{Table: "o", Column: "o_orderkey"})
	for _, row := range rowsOf(got) {
		masks[row[okIdx].I] = uint64(row[qidIdx].I)
	}
	if masks[3] != 0b011 { // order 3 (date 30) matches q0 and q1
		t.Errorf("mask(3) = %b", masks[3])
	}
	if masks[9] != 0b100 {
		t.Errorf("mask(9) = %b", masks[9])
	}

	// Build a shared HT (key custkey) including qid + orderdate, then
	// re-tag it for a new batch and check masks.
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "o", Column: "o_custkey"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "o", Column: "o_orderdate"}, Kind: types.Date},
			{Ref: QidRef(), Kind: types.Int64},
		},
		KeyCols: 1,
	}
	ht := hashtable.New(layout)
	sink, err := NewBuildHT(ht, got.Schema[1:], nil) // custkey, orderdate, qid
	if err != nil {
		// Schema slice above relies on column order; rebuild explicitly.
		t.Fatal(err)
	}
	for _, row := range rowsOf(got) {
		b := storage.NewBatch(got.Schema[1:])
		b.Cols[0].Append(row[1])
		b.Cols[1].Append(row[2])
		b.Cols[2].Append(row[3])
		sink.Consume(b)
	}
	if ht.Len() != 8 {
		t.Fatalf("shared HT len = %d", ht.Len())
	}

	// Re-tag for a new batch: one query, dates [30,30]. The re-tagged
	// view carries the new masks; the table keeps the build's.
	view, err := ReTag(ht, 2, []expr.Box{dateBox("o", 30, 30)})
	if err != nil {
		t.Fatal(err)
	}
	tagged, built := 0, 0
	for e := int32(0); e < int32(view.Len()); e++ {
		if view.Cell(e, 2) != 0 {
			tagged++
			if int64(view.Cell(e, 1)) != 30 {
				t.Errorf("mis-tagged entry date %d", int64(view.Cell(e, 1)))
			}
		}
		if ht.Cell(e, 2) != 0 {
			built++
		}
	}
	if tagged != 1 {
		t.Errorf("tagged = %d, want 1", tagged)
	}
	if built != 8 {
		t.Errorf("re-tag changed the table's own tags: %d of 8 still tagged", built)
	}

	// Re-tag with a predicate on an unstored column fails.
	bad := expr.NewBox(expr.Pred{
		Col: storage.ColRef{Table: "p", Column: "p_brand"},
		Con: expr.SetConstraint("Brand#1"),
	})
	if _, err := ReTag(ht, 2, []expr.Box{bad}); err == nil {
		t.Error("re-tag with unstored column accepted")
	}
	if _, err := ReTag(ht, 9, nil); err == nil {
		t.Error("bad qid col accepted")
	}
}

func TestSharedScanValidation(t *testing.T) {
	orders := ordersTable()
	if _, err := NewSharedScan(orders, "o", nil, []string{"o_orderkey"}); err == nil {
		t.Error("0 queries accepted")
	}
	boxes := make([]expr.Box, 65)
	if _, err := NewSharedScan(orders, "o", boxes, []string{"o_orderkey"}); err == nil {
		t.Error("65 queries accepted")
	}
	if _, err := NewSharedScan(orders, "o", make([]expr.Box, 1), []string{"zz"}); err == nil {
		t.Error("bad column accepted")
	}
}

func TestProbeQidIntersection(t *testing.T) {
	// Shared join: build side entries tagged 0b01 and 0b11; probe side
	// rows tagged 0b10. Only intersecting pairs survive with ANDed mask.
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "b", Column: "k"}, Kind: types.Int64},
			{Ref: QidRef(), Kind: types.Int64},
		},
		KeyCols: 1,
	}
	ht := hashtable.New(layout)
	ht.Insert([]uint64{1, 0b01})
	ht.Insert([]uint64{2, 0b11})

	schema := storage.Schema{
		{Ref: storage.ColRef{Table: "p", Column: "k"}, Kind: types.Int64},
		{Ref: QidRef(), Kind: types.Int64},
	}
	probe, err := NewProbe(ht, []storage.ColRef{{Table: "p", Column: "k"}}, nil, nil, nil, schema)
	if err != nil {
		t.Fatal(err)
	}
	probe.QidCol = 1                          // layout qid position
	probe.QidInCol = schema.IndexOf(QidRef()) // input qid position

	in := storage.NewBatch(schema)
	for _, k := range []int64{1, 2} {
		in.Cols[0].Append(types.NewInt(k))
		in.Cols[1].Append(types.NewInt(0b10))
	}
	out := storage.NewBatch(probe.OutSchema())
	probe.Apply(in, out)
	if out.Len() != 1 {
		t.Fatalf("qid probe rows = %d, want 1", out.Len())
	}
	if out.Cols[0].Ints[0] != 2 || out.Cols[1].Ints[0] != 0b10 {
		t.Errorf("qid probe row = k%d mask%b", out.Cols[0].Ints[0], out.Cols[1].Ints[0])
	}
}

func TestEndToEndJoinAggregate(t *testing.T) {
	// SELECT c_name, SUM(o_totalprice) FROM customer c, orders o
	// WHERE c_custkey = o_custkey AND o_orderdate BETWEEN 30 AND 70
	// GROUP BY c_name
	orders := ordersTable()
	cust := custTable()

	// Pipeline 1: build HT over filtered orders keyed by custkey.
	ht := buildOrdersHT(t, orders, dateBox("o", 30, 70))

	// Pipeline 2: scan customer, probe, aggregate.
	src, err := NewTableScan(cust, "c", nil, []string{"c_custkey", "c_name"})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewProbe(ht, []storage.ColRef{{Table: "c", Column: "c_custkey"}}, []int{1, 2}, nil, nil, src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	// No price column in HT payload — recompute via a second probe-side
	// path would be needed; instead rebuild with price included.
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "o", Column: "o_custkey"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "o", Column: "o_totalprice"}, Kind: types.Float64},
		},
		KeyCols: 1,
	}
	ht2 := hashtable.New(layout)
	bsrc, err := NewTableScan(orders, "o", []expr.Box{dateBox("o", 30, 70)}, []string{"o_custkey", "o_totalprice"})
	if err != nil {
		t.Fatal(err)
	}
	bsink, err := NewBuildHT(ht2, bsrc.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Pipeline{Source: bsrc, Sink: bsink}).Run(); err != nil {
		t.Fatal(err)
	}

	probe2, err := NewProbe(ht2, []storage.ColRef{{Table: "c", Column: "c_custkey"}}, []int{1}, nil, nil, src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	_ = probe

	aggLayout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "c", Column: "c_name"}, Kind: types.String},
			{Ref: storage.ColRef{Column: "sum"}, Kind: types.Float64},
		},
		KeyCols: 1,
		Dict:    cust.Column("c_name").Dict,
	}
	aggHT := hashtable.New(aggLayout)
	aggSink, err := NewAggHT(aggHT,
		[]storage.ColRef{{Table: "c", Column: "c_name"}},
		[]AggCell{{Func: expr.AggSum,
			InCol: probe2.OutSchema().MustIndexOf(storage.ColRef{Table: "o", Column: "o_totalprice"}),
			Kind:  types.Float64}},
		probe2.OutSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Pipeline{Source: src, Transforms: []Transform{probe2}, Sink: aggSink}).Run(); err != nil {
		t.Fatal(err)
	}

	// Orders with dates 30..70 are keys 3..7; custkeys 0,1,2,0,1.
	// sums: cust0: (3+6)*1.5=13.5; cust1: (4+7)*1.5=16.5; cust2: 5*1.5=7.5
	want := map[string]float64{"custA": 13.5, "custB": 16.5, "custC": 7.5}
	if aggHT.Len() != 3 {
		t.Fatalf("agg groups = %d", aggHT.Len())
	}
	for e := int32(0); e < int32(aggHT.Len()); e++ {
		name := aggHT.CellValue(e, 0).S
		sum := types.FromBits(types.Float64, aggHT.Cell(e, 1)).F
		if want[name] != sum {
			t.Errorf("group %q sum = %f, want %f", name, sum, want[name])
		}
	}
}
