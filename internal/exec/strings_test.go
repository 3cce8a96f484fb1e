package exec

// Strings through the hash-table lifecycle: a string cell is its code
// in the catalog's dictionary from the base column to the wire, so at
// every step — build, parallel build and merge, widening, demotion to
// the cold tier and revival — a table's cells must decode to exactly
// the base column's strings, and a probe by string must find them.

import (
	"fmt"
	"testing"

	"hashstash/internal/btree"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/htcache"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

const strRows = 4000

// strTable builds a table of strRows rows, coded against d: k is the
// row id, s_key a string key of 13 values and s_pay a string payload of
// 97, both drawn in an order unlike their lexical one.
func strTable(d *storage.Dict) *storage.Table {
	k := storage.NewColumn("k", types.Int64)
	key := &storage.Column{Name: "s_key", Kind: types.String, Dict: d}
	pay := &storage.Column{Name: "s_pay", Kind: types.String, Dict: d}
	for i := range strRows {
		k.Ints = append(k.Ints, int64(i))
		key.Append(types.NewString(fmt.Sprintf("key-%02d", (i*7)%13)))
		pay.Append(types.NewString(fmt.Sprintf("pay-%03d", (i*31)%97)))
	}
	return storage.NewTable("st", k, key, pay)
}

// strLayout is the join layout over strTable: s_key, then s_pay and k.
func strLayout(d *storage.Dict) hashtable.Layout {
	return hashtable.Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "st", Column: "s_key"}, Kind: types.String},
			{Ref: storage.ColRef{Table: "st", Column: "s_pay"}, Kind: types.String},
			{Ref: storage.ColRef{Table: "st", Column: "k"}, Kind: types.Int64},
		},
		KeyCols: 1,
		Dict:    d,
	}
}

// kRange is the box lo <= k < hi.
func kRange(lo, hi int64) expr.Box {
	return expr.NewBox(expr.Pred{
		Col: storage.ColRef{Table: "st", Column: "k"},
		Con: expr.IntervalConstraint(types.Int64, expr.Interval{
			HasLo: true, Lo: types.NewInt(lo), LoIncl: true, HasHi: true, Hi: types.NewInt(hi),
		}),
	})
}

// buildStrings inserts the rows of tbl in box into ht through a build
// pipeline run under par.
func buildStrings(t *testing.T, tbl *storage.Table, ht *hashtable.Table, box expr.Box, par Parallelism) {
	t.Helper()
	src, err := NewTableScan(tbl, "st", []expr.Box{box}, []string{"s_key", "s_pay", "k"})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewBuildHT(ht, src.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunParallel([]*Pipeline{{Source: src, Sink: sink}}, par); err != nil {
		t.Fatal(err)
	}
}

// checkStringCells checks that ht holds exactly the rows lo <= k < hi
// of tbl, that every string cell decodes (through CellValue and through
// the AppendColumn gather alike) to the base column's string of its
// row, and that probing by each key's code finds every row with it.
func checkStringCells(t *testing.T, step string, tbl *storage.Table, ht *hashtable.Table, lo, hi int) {
	t.Helper()
	if err := ht.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if ht.Len() != hi-lo {
		t.Fatalf("%s: %d entries, want %d", step, ht.Len(), hi-lo)
	}
	keyCol, payCol := tbl.Column("s_key"), tbl.Column("s_pay")
	ents := make([]int32, ht.Len())
	for e := range ents {
		ents[e] = int32(e)
	}
	keys, pays := storage.NewVec(types.String), storage.NewVec(types.String)
	ht.AppendColumn(keys, 0, ents)
	ht.AppendColumn(pays, 1, ents)
	perKey := map[string]int{}
	seen := make([]bool, strRows)
	for _, e := range ents {
		row := int(ht.Cell(e, 2))
		if row < lo || row >= hi || seen[row] {
			t.Fatalf("%s: entry %d holds row %d, outside [%d, %d) or twice", step, e, row, lo, hi)
		}
		seen[row] = true
		wantKey, wantPay := keyCol.Value(row).S, payCol.Value(row).S
		if got := ht.CellValue(e, 0).S; got != wantKey || keys.Value(int(e)).S != wantKey {
			t.Fatalf("%s: entry %d key %q / %q, base row %d has %q", step, e, got, keys.Value(int(e)).S, row, wantKey)
		}
		if got := ht.CellValue(e, 1).S; got != wantPay || pays.Value(int(e)).S != wantPay {
			t.Fatalf("%s: entry %d payload %q / %q, base row %d has %q", step, e, got, pays.Value(int(e)).S, row, wantPay)
		}
		perKey[wantKey]++
	}
	for s, n := range perKey {
		code, ok := ht.Layout().Dict.Lookup(s)
		if !ok {
			t.Fatalf("%s: key %q not in the dictionary", step, s)
		}
		found := 0
		it := ht.Probe([]uint64{uint64(code)})
		for e := it.Next(); e != -1; e = it.Next() {
			found++
		}
		if found != n {
			t.Fatalf("%s: probe by %q found %d entries, want %d", step, s, found, n)
		}
	}
}

// TestStringsThroughTableLifecycle follows one string-keyed,
// string-carrying table through a serial build, a two-worker build and
// merge, a copy-on-write widening, and demotion, spill and revival.
func TestStringsThroughTableLifecycle(t *testing.T) {
	d := storage.NewDict()
	tbl := strTable(d)
	serial := Parallelism{Workers: 1}
	spread := Parallelism{Workers: 2, MorselRows: 256}

	built := hashtable.New(strLayout(d))
	buildStrings(t, tbl, built, kRange(0, strRows), serial)
	checkStringCells(t, "build", tbl, built, 0, strRows)

	merged := hashtable.New(strLayout(d))
	buildStrings(t, tbl, merged, kRange(0, strRows), spread)
	checkStringCells(t, "two-worker build and merge", tbl, merged, 0, strRows)

	half := hashtable.New(strLayout(d))
	buildStrings(t, tbl, half, kRange(0, strRows/2), spread)
	half.Freeze()
	widened := half.Widen(strRows / 2)
	buildStrings(t, tbl, widened, kRange(strRows/2, strRows), spread)
	checkStringCells(t, "widening", tbl, widened, 0, strRows)
	checkStringCells(t, "widened source", tbl, half, 0, strRows/2)

	dictLen := d.Len()
	c := htcache.New(0)
	c.SetColdBudget(1 << 30)
	e := c.Register(widened, htcache.Lineage{
		Kind:    htcache.JoinBuild,
		Tables:  []string{"st"},
		JoinSig: "st|",
		KeyCols: []storage.ColRef{{Table: "st", Column: "s_key"}},
		QidCol:  -1,
	})
	c.Release(e)
	c.Budget = 1
	c.GC()
	if snap := e.Current(); !snap.Spilled() {
		t.Fatal("the table was not demoted to the cold tier")
	}
	c.SetBudget(0)
	snap := c.Revive(e, nil)
	if snap == nil || snap.HT == nil {
		t.Fatal("revival failed")
	}
	checkStringCells(t, "demote, spill and revive", tbl, snap.HT, 0, strRows)
	if d.Len() != dictLen {
		t.Fatalf("the cold tier grew the dictionary from %d to %d strings", dictLen, d.Len())
	}
}

// TestAbsentLiteralMatchesNothing: a string no column holds has no
// code, so a constraint naming only it keeps no row at a Filter, at a
// Probe's post-filter or at an index range, and resolving it adds
// nothing to the dictionary.
func TestAbsentLiteralMatchesNothing(t *testing.T) {
	d := storage.NewDict()
	tbl := strTable(d)
	dictLen := d.Len()
	absent := expr.SetConstraint("key-99")
	keyRef := storage.ColRef{Table: "st", Column: "s_key"}
	box := expr.NewBox(expr.Pred{Col: keyRef, Con: absent})

	src, err := NewTableScan(tbl, "st", nil, []string{"k", "s_key"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFilter(box, src.Schema(), d)
	if err != nil {
		t.Fatal(err)
	}
	if got := runToCollect(t, src, f).Len(); got != 0 {
		t.Errorf("Filter kept %d rows", got)
	}

	ht := hashtable.New(strLayout(d))
	buildStrings(t, tbl, ht, kRange(0, strRows), Parallelism{Workers: 1})
	ht.Freeze()
	probeSrc, err := NewTableScan(tbl, "p", nil, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	kLayout := hashtable.Layout{
		Cols:    []storage.ColMeta{{Ref: storage.ColRef{Table: "st", Column: "k"}, Kind: types.Int64}, {Ref: keyRef, Kind: types.String}},
		KeyCols: 1,
		Dict:    d,
	}
	byK := hashtable.New(kLayout)
	kSrc, err := NewTableScan(tbl, "st", nil, []string{"k", "s_key"})
	if err != nil {
		t.Fatal(err)
	}
	kSink, err := NewBuildHT(byK, kSrc.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Pipeline{Source: kSrc, Sink: kSink}).Run(); err != nil {
		t.Fatal(err)
	}
	probe, err := NewProbe(byK, []storage.ColRef{{Table: "p", Column: "k"}}, []int{1}, nil, box, probeSrc.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if got := runToCollect(t, probeSrc, probe).Len(); got != 0 || probe.FilteredOut() != strRows {
		t.Errorf("Probe post-filter kept %d rows and dropped %d, want 0 and %d", got, probe.FilteredOut(), strRows)
	}

	tree, err := btree.Build(tbl.Column("s_key"))
	if err != nil {
		t.Fatal(err)
	}
	iscan, err := NewIndexScan(tbl, "st", tree, absent, nil, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if got := drainSource(t, iscan).Len(); got != 0 {
		t.Errorf("index range kept %d rows", got)
	}
	if d.Len() != dictLen {
		t.Errorf("resolving an absent literal grew the dictionary from %d to %d strings", dictLen, d.Len())
	}
}
