package exec

// Golden serial-vs-vectorized equivalence tests: every vectorized
// operator is compared bit-for-bit against a row-at-a-time reference
// implementation (the seed engine's semantics, re-stated here with the
// boxed Value APIs) over randomized inputs covering all four kinds,
// filters, computes, probes with post-filters, and qid-masked shared
// probes.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

var goldenStrings = []string{"A", "N", "R", "F", "URGENT", "HIGH", "LOW", "zz-top"}

// goldenDict codes every golden batch and hash table, as a catalog's
// dictionary codes all of its tables. It holds every golden string
// before any test runs, so no test writes it.
var goldenDict = func() *storage.Dict {
	d := storage.NewDict()
	for _, s := range goldenStrings {
		d.Intern(s)
	}
	return d
}()

func goldenSchema(prefix string) storage.Schema {
	return storage.Schema{
		{Ref: storage.ColRef{Table: prefix, Column: "i"}, Kind: types.Int64},
		{Ref: storage.ColRef{Table: prefix, Column: "f"}, Kind: types.Float64},
		{Ref: storage.ColRef{Table: prefix, Column: "s"}, Kind: types.String},
		{Ref: storage.ColRef{Table: prefix, Column: "d"}, Kind: types.Date},
	}
}

func randBatch(rng *rand.Rand, schema storage.Schema, n int) *storage.Batch {
	b := storage.NewBatch(schema)
	for _, vec := range b.Cols {
		vec.Dict = goldenDict
		for i := 0; i < n; i++ {
			switch vec.Kind {
			case types.Int64:
				vec.Ints = append(vec.Ints, rng.Int63n(200)-100)
			case types.Date:
				vec.Ints = append(vec.Ints, 9000+rng.Int63n(365))
			case types.Float64:
				// Sprinkle NaN and infinities: MatchFloat orders NaN above
				// +Inf and the typed kernels must agree.
				switch rng.Intn(40) {
				case 0:
					vec.Floats = append(vec.Floats, math.NaN())
				case 1:
					vec.Floats = append(vec.Floats, math.Inf(1-2*rng.Intn(2)))
				default:
					vec.Floats = append(vec.Floats, rng.Float64()*100-50)
				}
			case types.String:
				vec.Append(types.NewString(goldenStrings[rng.Intn(len(goldenStrings))]))
			}
		}
	}
	return b
}

// requireBatchEqual compares two batches bit-for-bit (floats by bits, so
// NaN-safe and rounding-sensitive).
func requireBatchEqual(t *testing.T, got, want *storage.Batch) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("row count: got %d, want %d", got.Len(), want.Len())
	}
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("column count: got %d, want %d", len(got.Cols), len(want.Cols))
	}
	for c := range got.Cols {
		g, w := got.Cols[c], want.Cols[c]
		if g.Kind != w.Kind {
			t.Fatalf("col %d kind: got %v, want %v", c, g.Kind, w.Kind)
		}
		for i := 0; i < want.Len(); i++ {
			switch g.Kind {
			case types.Int64, types.Date:
				if g.Ints[i] != w.Ints[i] {
					t.Fatalf("col %d row %d: got %d, want %d", c, i, g.Ints[i], w.Ints[i])
				}
			case types.Float64:
				if math.Float64bits(g.Floats[i]) != math.Float64bits(w.Floats[i]) {
					t.Fatalf("col %d row %d: got %v, want %v (bits differ)", c, i, g.Floats[i], w.Floats[i])
				}
			case types.String:
				// The batches may code against different dictionaries.
				if gs, ws := g.Value(i).S, w.Value(i).S; gs != ws {
					t.Fatalf("col %d row %d: got %q, want %q", c, i, gs, ws)
				}
			}
		}
	}
}

// randBox builds a random predicate box over the schema: interval
// constraints on numeric/date columns, IN-sets on string columns, with
// ~50% selectivity per predicate.
func randBox(rng *rand.Rand, schema storage.Schema) expr.Box {
	var preds []expr.Pred
	for _, m := range schema {
		if rng.Intn(2) == 0 {
			continue
		}
		switch m.Kind {
		case types.Int64:
			lo := rng.Int63n(100) - 80
			preds = append(preds, expr.Pred{Col: m.Ref, Con: expr.IntervalConstraint(types.Int64, expr.Interval{
				HasLo: true, Lo: types.NewInt(lo), LoIncl: rng.Intn(2) == 0,
				HasHi: rng.Intn(2) == 0, Hi: types.NewInt(lo + rng.Int63n(120)), HiIncl: rng.Intn(2) == 0,
			})})
		case types.Date:
			lo := 9000 + rng.Int63n(200)
			preds = append(preds, expr.Pred{Col: m.Ref, Con: expr.IntervalConstraint(types.Date, expr.Interval{
				HasLo: rng.Intn(2) == 0, Lo: types.NewDate(lo), LoIncl: true,
				HasHi: true, Hi: types.NewDate(lo + rng.Int63n(250)), HiIncl: rng.Intn(2) == 0,
			})})
		case types.Float64:
			lo := rng.Float64()*60 - 50
			preds = append(preds, expr.Pred{Col: m.Ref, Con: expr.IntervalConstraint(types.Float64, expr.Interval{
				HasLo: true, Lo: types.NewFloat(lo), LoIncl: rng.Intn(2) == 0,
				HasHi: rng.Intn(2) == 0, Hi: types.NewFloat(lo + rng.Float64()*80), HiIncl: true,
			})})
		case types.String:
			k := 1 + rng.Intn(3)
			vals := make([]string, k)
			for i := range vals {
				vals[i] = goldenStrings[rng.Intn(len(goldenStrings))]
			}
			preds = append(preds, expr.Pred{Col: m.Ref, Con: expr.SetConstraint(vals...)})
		}
	}
	return expr.NewBox(preds...)
}

// refFilter is the row-at-a-time filter: refKeeps per row.
func refFilter(box expr.Box, schema storage.Schema, in, out *storage.Batch) {
	for i := 0; i < in.Len(); i++ {
		if !refKeeps(box, func(ref storage.ColRef) types.Value { return in.Cols[schema.MustIndexOf(ref)].Value(i) }) {
			continue
		}
		for c := range in.Cols {
			out.Cols[c].Append(in.Cols[c].Value(i))
		}
	}
}

func TestGoldenFilterVsRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schema := goldenSchema("t")
	for trial := 0; trial < 50; trial++ {
		in := randBatch(rng, schema, 1+rng.Intn(2*storage.BatchSize))
		box := randBox(rng, schema)
		f, err := NewFilter(box, schema, goldenDict)
		if err != nil {
			t.Fatal(err)
		}
		got := storage.NewBatch(schema)
		f.Apply(in, got)
		want := storage.NewBatch(schema)
		refFilter(box, schema, in, want)
		requireBatchEqual(t, got, want)
	}
}

func TestGoldenComputeVsRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	schema := goldenSchema("t")
	exprs := []expr.Expr{
		&expr.Col{Ref: schema[0].Ref},
		&expr.Col{Ref: schema[2].Ref}, // string passthrough
		&expr.Bin{Op: expr.OpMul, L: &expr.Col{Ref: schema[1].Ref},
			R: &expr.Bin{Op: expr.OpSub, L: &expr.Const{V: types.NewFloat(1)}, R: &expr.Col{Ref: schema[0].Ref}}},
		&expr.Bin{Op: expr.OpAdd, L: &expr.Col{Ref: schema[3].Ref}, R: &expr.Const{V: types.NewInt(30)}},
		&expr.Bin{Op: expr.OpDiv, L: &expr.Col{Ref: schema[1].Ref}, R: &expr.Col{Ref: schema[0].Ref}},
	}
	for trial, e := range exprs {
		ref := storage.ColRef{Column: fmt.Sprintf("c%d", trial)}
		comp := NewCompute(e, ref, schema)
		in := randBatch(rng, schema, 1+rng.Intn(2*storage.BatchSize))
		got := storage.NewBatch(comp.OutSchema())
		comp.Apply(in, got)

		// Reference: row-at-a-time EvalRow with boxed values.
		want := storage.NewBatch(comp.OutSchema())
		for i := 0; i < in.Len(); i++ {
			for ci := range in.Cols {
				want.Cols[ci].Append(in.Cols[ci].Value(i))
			}
			want.Cols[len(in.Cols)].Append(e.EvalRow(in, i))
		}
		requireBatchEqual(t, got, want)
	}
}

// buildGoldenHT builds a hash table whose key is (i) or (s, i), with
// float/date/string payload columns, from random rows.
func buildGoldenHT(rng *rand.Rand, stringKey bool, n int) *hashtable.Table {
	cols := []storage.ColMeta{
		{Ref: storage.ColRef{Table: "b", Column: "i"}, Kind: types.Int64},
		{Ref: storage.ColRef{Table: "b", Column: "f"}, Kind: types.Float64},
		{Ref: storage.ColRef{Table: "b", Column: "s"}, Kind: types.String},
		{Ref: storage.ColRef{Table: "b", Column: "d"}, Kind: types.Date},
	}
	keyCols := 1
	if stringKey {
		cols[0], cols[2] = cols[2], cols[0]
		keyCols = 2
	}
	ht := hashtable.New(hashtable.Layout{Cols: cols, KeyCols: keyCols, Dict: goldenDict})
	row := make([]uint64, len(cols))
	for r := 0; r < n; r++ {
		vals := map[string]types.Value{
			"i": types.NewInt(rng.Int63n(150) - 75),
			"f": types.NewFloat(rng.Float64() * 100),
			"s": types.NewString(goldenStrings[rng.Intn(len(goldenStrings)-2)]), // leave some strings in no entry
			"d": types.NewDate(9000 + rng.Int63n(365)),
		}
		for c, m := range cols {
			row[c] = ht.EncodeValue(vals[m.Ref.Column])
		}
		ht.Insert(row)
	}
	return ht
}

// refEntryKeeps is the row-at-a-time post-filter over one entry's
// cells, the golden reference for the probe's post-filter.
func refEntryKeeps(pf expr.Box, ht *hashtable.Table, e int32) bool {
	layout := ht.Layout()
	return refKeeps(pf, func(ref storage.ColRef) types.Value { return ht.CellValue(e, layout.ColIndex(ref)) })
}

// refProbe is the seed's row-at-a-time probe (including post-filter pf
// and qid-mask semantics), used as the golden reference.
func refProbe(p *Probe, pf expr.Box, in, out *storage.Batch) {
	n := in.Len()
	key := make([]uint64, len(p.KeyCols))
	for i := 0; i < n; i++ {
		for k, ci := range p.KeyCols {
			vec := in.Cols[ci]
			switch vec.Kind {
			case types.Int64, types.Date:
				key[k] = uint64(vec.Ints[i])
			case types.Float64:
				key[k] = types.NewFloat(vec.Floats[i]).Bits()
			case types.String:
				key[k] = uint64(vec.Strs[i])
			}
		}
		it := p.HT.Probe(key)
		for e := it.Next(); e != -1; e = it.Next() {
			if !refEntryKeeps(pf, p.HT, e) {
				continue
			}
			var mask uint64
			if p.QidCol >= 0 && p.QidInCol >= 0 {
				mask = p.HT.Cell(e, p.QidCol) & uint64(in.Cols[p.QidInCol].Ints[i])
				if mask == 0 {
					continue
				}
			}
			for c := range in.Cols {
				if c == p.QidInCol && p.QidCol >= 0 {
					out.Cols[c].Append(types.NewInt(int64(mask)))
					continue
				}
				out.Cols[c].Append(in.Cols[c].Value(i))
			}
			for oi, ci := range p.EmitCols {
				out.Cols[len(in.Cols)+oi].Append(p.HT.CellValue(e, ci))
			}
		}
	}
}

// applyAll applies t to in until it reports no more output, appending
// every call's rows to out: the whole output of one input batch, which
// a probe emits over several calls once it passes storage.BatchSize.
func applyAll(t Transform, in, out *storage.Batch) {
	for t.Apply(in, out) {
	}
}

func TestGoldenProbeVsRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	schema := goldenSchema("p")
	for _, stringKey := range []bool{false, true} {
		for _, withPF := range []bool{false, true} {
			name := fmt.Sprintf("stringKey=%v/postFilter=%v", stringKey, withPF)
			t.Run(name, func(t *testing.T) {
				ht := buildGoldenHT(rng, stringKey, 3000)
				layout := ht.Layout()
				keyRefs := []storage.ColRef{{Table: "p", Column: "i"}}
				if stringKey {
					keyRefs = []storage.ColRef{{Table: "p", Column: "s"}, {Table: "p", Column: "i"}}
				}
				var pf expr.Box
				if withPF {
					pf = expr.NewBox(expr.Pred{
						Col: storage.ColRef{Table: "b", Column: "d"},
						Con: expr.IntervalConstraint(types.Date, expr.Interval{
							HasLo: true, Lo: types.NewDate(9100), LoIncl: true,
							HasHi: true, Hi: types.NewDate(9300), HiIncl: false,
						}),
					})
				}
				// Emit every layout column (renamed to avoid clashing with the
				// probe-side schema).
				emitCols := make([]int, len(layout.Cols))
				emitRefs := make([]storage.ColRef, len(layout.Cols))
				for c, m := range layout.Cols {
					emitCols[c] = c
					emitRefs[c] = storage.ColRef{Table: "bb", Column: m.Ref.Column}
				}
				for trial := 0; trial < 10; trial++ {
					probe, err := NewProbe(ht, keyRefs, emitCols, emitRefs, pf, schema)
					if err != nil {
						t.Fatal(err)
					}
					in := randBatch(rng, schema, 1+rng.Intn(storage.BatchSize))
					got := storage.NewBatch(probe.OutSchema())
					applyAll(probe, in, got)
					want := storage.NewBatch(probe.OutSchema())
					refProbe(probe, pf, in, want)
					requireBatchEqual(t, got, want)
					if got.Len() == 0 && trial == 0 {
						t.Log("warning: empty probe result in first trial")
					}
				}
			})
		}
	}
}

func TestGoldenQidMaskedProbeVsRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Build a qid-tagged table: key i, payload f, qid mask.
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "b", Column: "i"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "b", Column: "f"}, Kind: types.Float64},
			{Ref: QidRef(), Kind: types.Int64},
		},
		KeyCols: 1,
	}
	ht := hashtable.New(layout)
	for r := 0; r < 2000; r++ {
		ht.Insert([]uint64{
			uint64(rng.Int63n(100)),
			types.NewFloat(rng.Float64()).Bits(),
			uint64(rng.Int63n(16)), // 4-query masks, some zero
		})
	}
	schema := storage.Schema{
		{Ref: storage.ColRef{Table: "p", Column: "i"}, Kind: types.Int64},
		{Ref: QidRef(), Kind: types.Int64},
	}
	probe, err := NewProbe(ht, []storage.ColRef{{Table: "p", Column: "i"}}, []int{1}, nil, nil, schema)
	if err != nil {
		t.Fatal(err)
	}
	probe.QidCol = 2
	probe.QidInCol = 1
	for trial := 0; trial < 20; trial++ {
		in := storage.NewBatch(schema)
		nrows := 1 + rng.Intn(storage.BatchSize)
		for i := 0; i < nrows; i++ {
			in.Cols[0].Ints = append(in.Cols[0].Ints, rng.Int63n(120))
			in.Cols[1].Ints = append(in.Cols[1].Ints, rng.Int63n(16))
		}
		got := storage.NewBatch(probe.OutSchema())
		applyAll(probe, in, got)
		want := storage.NewBatch(probe.OutSchema())
		refProbe(probe, nil, in, want)
		requireBatchEqual(t, got, want)
	}
}

func TestGoldenSharedScanVsRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tbl := storage.NewTable("g",
		storage.NewColumn("i", types.Int64),
		storage.NewColumn("f", types.Float64),
		storage.NewColumn("s", types.String),
		storage.NewColumn("d", types.Date),
	)
	for r := 0; r < 3*storage.BatchSize+17; r++ {
		tbl.Cols[0].Ints = append(tbl.Cols[0].Ints, rng.Int63n(200)-100)
		tbl.Cols[1].Floats = append(tbl.Cols[1].Floats, rng.Float64()*100-50)
		tbl.Cols[2].Append(types.NewString(goldenStrings[rng.Intn(len(goldenStrings))]))
		tbl.Cols[3].Ints = append(tbl.Cols[3].Ints, 9000+rng.Int63n(365))
	}
	schema := goldenSchema("g")
	boxes := make([]expr.Box, 5)
	for q := range boxes {
		boxes[q] = randBox(rng, schema)
	}
	src, err := NewSharedScan(tbl, "g", boxes, []string{"i", "f", "s", "d"})
	if err != nil {
		t.Fatal(err)
	}
	all := drainSource(t, src)

	// Reference: per-row box evaluation.
	want := storage.NewBatch(src.Schema())
	for row := int32(0); row < int32(tbl.NumRows()); row++ {
		var mask uint64
		for q, box := range boxes {
			if refKeeps(box, func(ref storage.ColRef) types.Value { return tbl.Column(ref.Column).Value(int(row)) }) {
				mask |= 1 << uint(q)
			}
		}
		if mask == 0 {
			continue
		}
		for i, c := range src.cols {
			want.Cols[i].AppendFrom(c, row)
		}
		want.Cols[len(src.cols)].Append(types.NewInt(int64(mask)))
	}
	requireBatchEqual(t, all, want)
}

func TestGoldenAggVsRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	schema := goldenSchema("a")
	layout := hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "a", Column: "s"}, Kind: types.String},
			{Ref: storage.ColRef{Table: "", Column: "sum_f"}, Kind: types.Float64},
			{Ref: storage.ColRef{Table: "", Column: "cnt"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "", Column: "min_i"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "", Column: "max_f"}, Kind: types.Float64},
			{Ref: storage.ColRef{Table: "", Column: "min_f"}, Kind: types.Float64},
			{Ref: storage.ColRef{Table: "", Column: "max_i"}, Kind: types.Int64},
		},
		KeyCols: 1,
		Dict:    goldenDict,
	}
	aggs := []AggCell{
		{Func: expr.AggSum, InCol: 1, Kind: types.Float64},
		{Func: expr.AggCount, InCol: -1, Kind: types.Int64},
		{Func: expr.AggMin, InCol: 0, Kind: types.Int64},
		{Func: expr.AggMax, InCol: 1, Kind: types.Float64},
		{Func: expr.AggMin, InCol: 3, Kind: types.Float64}, // date arg folded as float
		{Func: expr.AggMax, InCol: 3, Kind: types.Int64},
	}
	sink, err := NewAggHT(hashtable.New(layout), []storage.ColRef{schema[2].Ref}, aggs, schema)
	if err != nil {
		t.Fatal(err)
	}

	// Reference accumulators, keyed by group string.
	type acc struct {
		sum        float64
		cnt        int64
		minI, maxI int64
		maxF, minF float64
	}
	ref := map[string]*acc{}
	for trial := 0; trial < 8; trial++ {
		in := randBatch(rng, schema, 1+rng.Intn(storage.BatchSize))
		sink.Consume(in)
		for i := 0; i < in.Len(); i++ {
			g := in.Cols[2].Value(i).S
			a := ref[g]
			if a == nil {
				a = &acc{minI: math.MaxInt64, maxI: math.MinInt64, maxF: math.Inf(-1), minF: math.Inf(1)}
				ref[g] = a
			}
			a.sum += in.Cols[1].Floats[i]
			a.cnt++
			if v := in.Cols[0].Ints[i]; v < a.minI {
				a.minI = v
			}
			if v := in.Cols[1].Floats[i]; v > a.maxF {
				a.maxF = v
			}
			if v := float64(in.Cols[3].Ints[i]); v < a.minF {
				a.minF = v
			}
			if v := in.Cols[3].Ints[i]; v > a.maxI {
				a.maxI = v
			}
		}
	}
	ht := sink.HT
	if ht.Len() != len(ref) {
		t.Fatalf("group count: got %d, want %d", ht.Len(), len(ref))
	}
	for e := int32(0); e < int32(ht.Len()); e++ {
		g := ht.CellValue(e, 0).S
		a := ref[g]
		if a == nil {
			t.Fatalf("unexpected group %q", g)
		}
		if got := math.Float64frombits(ht.Cell(e, 1)); math.Abs(got-a.sum) > 1e-9*math.Max(1, math.Abs(a.sum)) {
			t.Errorf("group %q sum: got %v, want %v", g, got, a.sum)
		}
		if got := int64(ht.Cell(e, 2)); got != a.cnt {
			t.Errorf("group %q count: got %d, want %d", g, got, a.cnt)
		}
		if got := int64(ht.Cell(e, 3)); got != a.minI {
			t.Errorf("group %q min_i: got %d, want %d", g, got, a.minI)
		}
		if got := math.Float64frombits(ht.Cell(e, 4)); got != a.maxF {
			t.Errorf("group %q max_f: got %v, want %v", g, got, a.maxF)
		}
		if got := math.Float64frombits(ht.Cell(e, 5)); got != a.minF {
			t.Errorf("group %q min_f: got %v, want %v", g, got, a.minF)
		}
		if got := int64(ht.Cell(e, 6)); got != a.maxI {
			t.Errorf("group %q max_i: got %d, want %d", g, got, a.maxI)
		}
	}
	if sink.Inserted() != int64(len(ref)) {
		t.Errorf("inserted: got %d, want %d", sink.Inserted(), len(ref))
	}
}

// TestProbeWideKey exercises the fallback for keys wider than the
// probe's stack-allocated key buffer (8 cells).
func TestProbeWideKey(t *testing.T) {
	const nKeys = 9
	var cols []storage.ColMeta
	var keyRefs []storage.ColRef
	var schema storage.Schema
	for k := 0; k < nKeys; k++ {
		ref := storage.ColRef{Table: "b", Column: fmt.Sprintf("k%d", k)}
		cols = append(cols, storage.ColMeta{Ref: ref, Kind: types.Int64})
		pref := storage.ColRef{Table: "p", Column: fmt.Sprintf("k%d", k)}
		schema = append(schema, storage.ColMeta{Ref: pref, Kind: types.Int64})
		keyRefs = append(keyRefs, pref)
	}
	cols = append(cols, storage.ColMeta{Ref: storage.ColRef{Table: "b", Column: "v"}, Kind: types.Int64})
	ht := hashtable.New(hashtable.Layout{Cols: cols, KeyCols: nKeys})
	row := make([]uint64, nKeys+1)
	for r := 0; r < 10; r++ {
		for k := 0; k < nKeys; k++ {
			row[k] = uint64(r % 3)
		}
		row[nKeys] = uint64(100 + r)
		ht.Insert(row)
	}
	probe, err := NewProbe(ht, keyRefs, []int{nKeys}, nil, nil, schema)
	if err != nil {
		t.Fatal(err)
	}
	in := storage.NewBatch(schema)
	for i := 0; i < 6; i++ {
		for k := 0; k < nKeys; k++ {
			in.Cols[k].Ints = append(in.Cols[k].Ints, int64(i%3))
		}
	}
	got := storage.NewBatch(probe.OutSchema())
	probe.Apply(in, got)
	want := storage.NewBatch(probe.OutSchema())
	refProbe(probe, nil, in, want)
	requireBatchEqual(t, got, want)
	if got.Len() == 0 {
		t.Fatal("wide-key probe matched nothing")
	}
}

// TestGoldenHTScanVsRowAtATime compares the chunked, selection-based
// HTScan against a per-entry reference, including qid masking and a
// post-filter.
func TestGoldenHTScanVsRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ht := buildGoldenHT(rng, false, 5000)
	layout := ht.Layout()
	pf := expr.NewBox(expr.Pred{
		Col: storage.ColRef{Table: "b", Column: "s"},
		Con: expr.SetConstraint("A", "N", "URGENT"),
	})
	scan, err := NewHTScan(ht, []int{0, 1, 2, 3}, nil, pf)
	if err != nil {
		t.Fatal(err)
	}
	all := drainSource(t, scan)
	want := storage.NewBatch(scan.Schema())
	for e := int32(0); e < int32(ht.Len()); e++ {
		s := ht.CellValue(e, layout.ColIndex(storage.ColRef{Table: "b", Column: "s"})).S
		if s != "A" && s != "N" && s != "URGENT" {
			continue
		}
		for i, ci := range scan.OutCols {
			want.Cols[i].Append(ht.CellValue(e, ci))
		}
	}
	requireBatchEqual(t, all, want)
}
