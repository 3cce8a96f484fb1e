package exec

// Differential test of every place the engine evaluates a predicate
// box: each filter site must keep exactly the rows that refKeeps — the
// constraints' scalar matches MatchInt, MatchFloat and MatchString —
// keeps, over generated tables and boxes that put values on the
// bounds, NaN, signed zeros and infinities in float columns, and empty,
// one-value and many-value string sets.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hashstash/internal/btree"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// refKeeps is the row-level reference of every filter site: box keeps
// a row iff each constraint's scalar match accepts the row's value in
// its column, which val returns.
func refKeeps(box expr.Box, val func(storage.ColRef) types.Value) bool {
	for _, p := range box {
		v := val(p.Col)
		var ok bool
		switch v.Kind {
		case types.Int64, types.Date:
			ok = p.Con.MatchInt(v.I)
		case types.Float64:
			ok = p.Con.MatchFloat(v.F)
		case types.String:
			ok = p.Con.MatchString(v.S)
		}
		if !ok {
			return false
		}
	}
	return true
}

// Small domains, so that generated bounds often equal stored values.
var (
	siteInts    = []int64{-4, -3, -2, -1, 0, 1, 2, 3, 4}
	siteFloats  = []float64{math.Inf(-1), -2, -1, math.Copysign(0, -1), 0, 0.5, 1, 2, math.Inf(1), math.NaN()}
	siteBounds  = []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 1, math.Inf(1)}
	siteStrings = []string{"", "a", "b", "c", "dd"}
)

// siteCols are the constrainable columns of a generated table; column
// "r" (the row number) identifies rows in every site's output.
var siteCols = []struct {
	name string
	kind types.Kind
}{{"i", types.Int64}, {"d", types.Date}, {"f", types.Float64}, {"s", types.String}}

func siteRef(col string) storage.ColRef { return storage.ColRef{Table: "t", Column: col} }

// siteTable generates a table of n rows: r, then one column per
// siteCols entry drawn from its small domain.
func siteTable(rng *rand.Rand, n int) *storage.Table {
	tbl := storage.NewTable("t", storage.NewColumn("r", types.Int64))
	for _, c := range siteCols {
		tbl.AddColumn(storage.NewColumn(c.name, c.kind))
	}
	for r := 0; r < n; r++ {
		tbl.Cols[0].Ints = append(tbl.Cols[0].Ints, int64(r))
		tbl.Cols[1].Ints = append(tbl.Cols[1].Ints, siteInts[rng.Intn(len(siteInts))])
		tbl.Cols[2].Ints = append(tbl.Cols[2].Ints, 100+siteInts[rng.Intn(len(siteInts))])
		tbl.Cols[3].Floats = append(tbl.Cols[3].Floats, siteFloats[rng.Intn(len(siteFloats))])
		tbl.Cols[4].Append(types.NewString(siteStrings[rng.Intn(len(siteStrings))]))
	}
	return tbl
}

// siteInterval draws an interval over bounds: each side is unbounded,
// inclusive or exclusive, so open, closed, half-open and unbounded
// intervals all occur.
func siteInterval(rng *rand.Rand, bound func() types.Value) expr.Interval {
	var iv expr.Interval
	if rng.Intn(3) > 0 {
		iv.HasLo, iv.Lo, iv.LoIncl = true, bound(), rng.Intn(2) == 0
	}
	if rng.Intn(3) > 0 {
		iv.HasHi, iv.Hi, iv.HiIncl = true, bound(), rng.Intn(2) == 0
	}
	return iv
}

// siteBox generates a box constraining each column with probability
// one half; string sets are empty, one value or many values, sometimes
// naming a value the table does not hold.
func siteBox(rng *rand.Rand) expr.Box {
	var preds []expr.Pred
	for _, c := range siteCols {
		if rng.Intn(2) == 0 {
			continue
		}
		var con expr.Constraint
		switch c.kind {
		case types.Int64:
			con = expr.IntervalConstraint(c.kind, siteInterval(rng, func() types.Value {
				return types.NewInt(siteInts[rng.Intn(len(siteInts))])
			}))
		case types.Date:
			con = expr.IntervalConstraint(c.kind, siteInterval(rng, func() types.Value {
				return types.NewDate(100 + siteInts[rng.Intn(len(siteInts))])
			}))
		case types.Float64:
			con = expr.IntervalConstraint(c.kind, siteInterval(rng, func() types.Value {
				return types.NewFloat(siteBounds[rng.Intn(len(siteBounds))])
			}))
		case types.String:
			var vals []string
			switch rng.Intn(3) {
			case 1:
				vals = []string{siteStrings[rng.Intn(len(siteStrings))]}
			case 2:
				for range 2 + rng.Intn(3) {
					vals = append(vals, append(siteStrings, "zz")[rng.Intn(len(siteStrings)+1)])
				}
			}
			con = expr.SetConstraint(vals...)
		}
		preds = append(preds, expr.Pred{Col: siteRef(c.name), Con: con})
	}
	return expr.NewBox(preds...)
}

// siteHT stores every row of tbl in a hash table keyed on column key,
// with the rest of the table's columns and a qid column as payload;
// entry e holds row e. It returns the table and the layout positions
// of r and the qid column.
func siteHT(tbl *storage.Table, key string) (ht *hashtable.Table, rCol, qidCol int) {
	names := []string{key}
	for _, c := range tbl.Cols {
		if c.Name != key {
			names = append(names, c.Name)
		}
	}
	var layout hashtable.Layout
	layout.KeyCols, layout.Dict = 1, tableDict(tbl)
	for _, name := range names {
		layout.Cols = append(layout.Cols, storage.ColMeta{Ref: siteRef(name), Kind: tbl.Column(name).Kind})
	}
	layout.Cols = append(layout.Cols, storage.ColMeta{Ref: QidRef(), Kind: types.Int64})
	ht = hashtable.New(layout)
	row := make([]uint64, len(layout.Cols))
	for r := range tbl.NumRows() {
		for c, name := range names {
			row[c] = ht.EncodeValue(tbl.Column(name).Value(r))
		}
		ht.Insert(row)
	}
	return ht.Freeze(), slices.Index(names, "r"), len(names)
}

// rowIDs returns column c of a drained batch.
func rowIDs(b *storage.Batch, c int) []int64 { return b.Cols[c].Ints }

// checkSite fails the test when a site's rows differ from the
// reference's.
func checkSite(t *testing.T, site string, box expr.Box, got, want []int64) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s under box %v:\n got  %v\n want %v", site, box, got, want)
	}
}

// checkFilterSites generates one table, hash table and batch of boxes
// and checks every filter site against refKeeps.
func checkFilterSites(t *testing.T, rng *rand.Rand) {
	n := rng.Intn(2*storage.BatchSize + 100)
	if rng.Intn(4) > 0 {
		n = rng.Intn(200)
	}
	tbl := siteTable(rng, n)
	boxes := make([]expr.Box, 1+rng.Intn(4))
	for q := range boxes {
		boxes[q] = siteBox(rng)
	}
	keeps := func(box expr.Box, row int) bool {
		return refKeeps(box, func(ref storage.ColRef) types.Value { return tbl.Column(ref.Column).Value(row) })
	}
	key := siteCols[rng.Intn(len(siteCols))]
	ht, rCol, qidCol := siteHT(tbl, key.name)
	tree, err := btree.Build(tbl.Column("i"))
	if err != nil {
		t.Fatal(err)
	}
	schema := storage.Schema{{Ref: siteRef("r"), Kind: types.Int64}}
	for _, c := range siteCols {
		schema = append(schema, storage.ColMeta{Ref: siteRef(c.name), Kind: c.kind})
	}

	for _, box := range boxes {
		var want []int64
		for r := range n {
			if keeps(box, r) {
				want = append(want, int64(r))
			}
		}

		// Filter, over the table in batches.
		f, err := NewFilter(box, schema, tableDict(tbl))
		if err != nil {
			t.Fatal(err)
		}
		got := storage.NewBatch(schema)
		for lo := 0; lo < n; lo += storage.BatchSize {
			in := storage.NewBatch(schema)
			for c, col := range tbl.Cols {
				in.Cols[c].AppendColumnRange(col, int32(lo), int32(min(lo+storage.BatchSize, n)))
			}
			f.Apply(in, got)
		}
		checkSite(t, "Filter", box, rowIDs(got, 0), want)

		// TableScan residual over table runs. A box the algebra calls
		// empty makes no run; the kernels keep no row under it either,
		// NaN rows included.
		scan, err := NewTableScan(tbl, "t", []expr.Box{box}, []string{"r"})
		if err != nil {
			t.Fatal(err)
		}
		checkSite(t, "TableScan", box, rowIDs(drainSource(t, scan), 0), want)

		// HTScan post-filter: entry e holds row e.
		hts, err := NewHTScan(ht, []int{rCol}, nil, box)
		if err != nil {
			t.Fatal(err)
		}
		checkSite(t, "HTScan/key="+key.name, box, rowIDs(drainSource(t, hts), 0), want)

		// Residuals over the index on i: a TableScan permutation run
		// and an IndexOrderScan walk in either direction.
		var inOrder []int64
		for _, r := range tree.Perm() {
			if keeps(box, int(r)) {
				inOrder = append(inOrder, int64(r))
			}
		}
		iscan, err := NewIndexScan(tbl, "t", tree, expr.Full(types.Int64), box, []string{"r"})
		if err != nil {
			t.Fatal(err)
		}
		checkSite(t, "TableScan/index", box, rowIDs(drainSource(t, iscan), 0), inOrder)
		desc := rng.Intn(2) == 0
		oscan, err := NewIndexOrderScan(tbl, "t", tree, desc, 0, box, []string{"r"})
		if err != nil {
			t.Fatal(err)
		}
		if desc {
			slices.Reverse(inOrder)
		}
		checkSite(t, fmt.Sprintf("IndexOrderScan/desc=%v", desc), box, rowIDs(drainSource(t, oscan), 0), inOrder)

		checkProbe(t, rng, tbl, ht, rCol, key.name, box)
	}

	// SharedScan: one bit per box, rows in no box dropped.
	var wantRows, wantMasks []int64
	for r := range n {
		var mask int64
		for q, box := range boxes {
			if keeps(box, r) {
				mask |= 1 << q
			}
		}
		if mask != 0 {
			wantRows, wantMasks = append(wantRows, int64(r)), append(wantMasks, mask)
		}
	}
	ss, err := NewSharedScan(tbl, "t", boxes, []string{"r"})
	if err != nil {
		t.Fatal(err)
	}
	tagged := drainSource(t, ss)
	checkSite(t, "SharedScan rows", nil, rowIDs(tagged, 0), wantRows)
	checkSite(t, "SharedScan masks", nil, rowIDs(tagged, 1), wantMasks)

	// ReTag: every entry's mask, dead entries included.
	view, err := ReTag(ht, qidCol, boxes)
	if err != nil {
		t.Fatal(err)
	}
	var gotTags, wantTags []int64
	for e := range int32(n) {
		gotTags = append(gotTags, int64(view.Cell(e, qidCol)))
		var mask int64
		for q, box := range boxes {
			if keeps(box, int(e)) {
				mask |= 1 << q
			}
		}
		wantTags = append(wantTags, mask)
	}
	checkSite(t, "ReTag/key="+key.name, nil, gotTags, wantTags)
}

// checkProbe probes ht (keyed on column key) with a batch of keys drawn
// from the table's values plus absent ones and checks the post-filtered
// (input row, entry row) pairs against the chain walk filtered by
// refKeeps.
func checkProbe(t *testing.T, rng *rand.Rand, tbl *storage.Table, ht *hashtable.Table, rCol int, key string, box expr.Box) {
	kind := tbl.Column(key).Kind
	in := storage.NewBatch(storage.Schema{
		{Ref: storage.ColRef{Table: "p", Column: key}, Kind: kind},
		{Ref: storage.ColRef{Table: "p", Column: "pr"}, Kind: types.Int64},
	})
	in.Cols[0].Dict = ht.Layout().Dict // probe keys code like the table's
	var keys []types.Value
	for i := range 1 + rng.Intn(64) {
		var v types.Value
		if n := tbl.NumRows(); n > 0 && rng.Intn(4) > 0 {
			v = tbl.Column(key).Value(rng.Intn(n))
		} else {
			switch kind {
			case types.Int64:
				v = types.NewInt(99)
			case types.Date:
				v = types.NewDate(99)
			case types.Float64:
				v = types.NewFloat(99.5)
			case types.String:
				v = types.NewString("absent")
			}
		}
		keys = append(keys, v)
		in.Cols[0].Append(v)
		in.Cols[1].Append(types.NewInt(int64(i)))
	}
	probe, err := NewProbe(ht, []storage.ColRef{in.Schema[0].Ref}, []int{rCol},
		[]storage.ColRef{{Table: "b", Column: "r"}}, box, in.Schema)
	if err != nil {
		t.Fatal(err)
	}
	out := storage.NewBatch(probe.OutSchema())
	applyAll(probe, in, out)
	got := make([]int64, 0, 2*out.Len())
	for i := range out.Len() {
		got = append(got, out.Cols[1].Ints[i], out.Cols[2].Ints[i])
	}
	var want []int64
	cell := make([]uint64, 1)
	for i, v := range keys {
		if v.Kind == types.String {
			code, ok := ht.Layout().Dict.Lookup(v.S)
			if !ok {
				continue
			}
			cell[0] = uint64(code)
		} else {
			cell[0] = v.Bits()
		}
		it := ht.Probe(cell)
		for e := it.Next(); e != -1; e = it.Next() {
			if refEntryKeeps(box, ht, e) {
				want = append(want, int64(i), int64(e))
			}
		}
	}
	checkSite(t, "Probe/key="+key, box, got, want)
}

// TestFilterSitesDifferential checks every filter site against the
// scalar matches over generated cases.
func TestFilterSitesDifferential(t *testing.T) {
	for seed := range int64(300) {
		checkFilterSites(t, rand.New(rand.NewSource(seed)))
	}
}

// FuzzFilterSites drives the differential with fuzzer-chosen seeds.
func FuzzFilterSites(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkFilterSites(t, rand.New(rand.NewSource(seed)))
	})
}
