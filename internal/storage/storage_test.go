package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hashstash/internal/types"
)

func intCol(name string, vals ...int64) *Column {
	c := NewColumn(name, types.Int64)
	c.Ints = vals
	return c
}

func TestColumnAppendValue(t *testing.T) {
	ci := NewColumn("i", types.Int64)
	cf := NewColumn("f", types.Float64)
	cs := NewColumn("s", types.String)
	cd := NewColumn("d", types.Date)
	ci.Append(types.NewInt(7))
	cf.Append(types.NewFloat(1.5))
	cs.Append(types.NewString("x"))
	cd.Append(types.NewDate(42))
	cd.Append(types.NewInt(43)) // int into date column is allowed
	if ci.Value(0).I != 7 || cf.Value(0).F != 1.5 || cs.Value(0).S != "x" {
		t.Error("column values wrong after append")
	}
	if cd.Len() != 2 || cd.Value(1).I != 43 || cd.Value(1).Kind != types.Date {
		t.Errorf("date column: %v", cd.Value(1))
	}
}

func TestColumnAppendKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on kind mismatch")
		}
	}()
	NewColumn("i", types.Int64).Append(types.NewString("x"))
}

func TestTableBasics(t *testing.T) {
	tbl := NewTable("t", intCol("a"), NewColumn("b", types.String))
	tbl.AppendRow(types.NewInt(1), types.NewString("one"))
	tbl.AppendRow(types.NewInt(2), types.NewString("two"))
	if tbl.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
	if tbl.Column("a") == nil || tbl.Column("zz") != nil {
		t.Error("Column lookup broken")
	}
	if tbl.ColumnIndex("b") != 1 || tbl.ColumnIndex("zz") != -1 {
		t.Error("ColumnIndex broken")
	}
	if err := tbl.Check(); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestTableCheckDetectsRaggedColumns(t *testing.T) {
	tbl := NewTable("t", intCol("a", 1, 2), intCol("b", 1))
	if err := tbl.Check(); err == nil {
		t.Error("Check should fail on ragged columns")
	}
}

func TestTableDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate column")
		}
	}()
	NewTable("t", intCol("a"), intCol("a"))
}

func TestAppendRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong arity")
		}
	}()
	NewTable("t", intCol("a")).AppendRow()
}

// randDupColumn draws n values of the kind from a domain of distinct
// values, so small domains give heavy ties.
func randDupColumn(r *rand.Rand, kind types.Kind, n, distinct int) *Column {
	c := NewColumn("c", kind)
	for i := 0; i < n; i++ {
		d := r.Intn(distinct)
		switch kind {
		case types.Int64, types.Date:
			c.Ints = append(c.Ints, int64(d)-int64(distinct)/2)
		case types.Float64:
			c.Floats = append(c.Floats, float64(d)/4-1)
		case types.String:
			c.Append(types.NewString(fmt.Sprintf("s%03d", d)))
		}
	}
	return c
}

// stableOrder is the reference order: a stable sort of the row ids by
// value, descending when desc.
func stableOrder(col *Column, desc bool) []int32 {
	perm := make([]int32, col.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		c := col.Value(int(a)).Compare(col.Value(int(b)))
		if desc {
			return -c
		}
		return c
	})
	return perm
}

var sortKinds = []types.Kind{types.Int64, types.Date, types.Float64, types.String}

// TestSortedPermMatchesStableSort: the index permutation is exactly the
// stable sort's, ties in row-id order, on every kind.
func TestSortedPermMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, kind := range sortKinds {
		for _, distinct := range []int{1, 3, 50, 5000} {
			col := randDupColumn(r, kind, 2000, distinct)
			if got, want := SortedPerm(col), stableOrder(col, false); !slices.Equal(got, want) {
				t.Fatalf("%v over %d distinct values: permutation differs from the stable sort", kind, distinct)
			}
		}
	}
}

// TestOrderPermTopK: a cut permutation is the stable sort's prefix in
// both directions, under heavy ties, at every boundary of k.
func TestOrderPermTopK(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, kind := range sortKinds {
		for _, n := range []int{1, 2, 7, 300} {
			for _, distinct := range []int{1, 4, 1000} {
				col := randDupColumn(r, kind, n, distinct)
				for _, desc := range []bool{false, true} {
					want := stableOrder(col, desc)
					v := col.view()
					for _, k := range []int{1, n - 1, n, n + 1} {
						got := OrderPerm(n, k, v.RowOrder(desc))
						cut := want
						if k > 0 && k < n {
							cut = want[:k]
						}
						if !slices.Equal(got, cut) {
							t.Fatalf("%v n=%d distinct=%d desc=%v k=%d: got %v, want %v", kind, n, distinct, desc, k, got, cut)
						}
					}
				}
			}
		}
	}
}

func TestVecBasics(t *testing.T) {
	for _, kind := range []types.Kind{types.Int64, types.Float64, types.String, types.Date} {
		v := NewVec(kind)
		if v.Len() != 0 {
			t.Errorf("new vec len %d", v.Len())
		}
		switch kind {
		case types.Int64:
			v.Append(types.NewInt(1))
		case types.Float64:
			v.Append(types.NewFloat(1))
		case types.String:
			v.Append(types.NewString("a"))
		case types.Date:
			v.Append(types.NewDate(1))
		}
		if v.Len() != 1 {
			t.Errorf("%v vec len after append = %d", kind, v.Len())
		}
		if v.Value(0).Kind != kind {
			t.Errorf("%v vec value kind = %v", kind, v.Value(0).Kind)
		}
		v.Reset()
		if v.Len() != 0 {
			t.Errorf("%v vec len after reset = %d", kind, v.Len())
		}
	}
}

func TestVecAppendFrom(t *testing.T) {
	col := intCol("a", 10, 20, 30)
	v := NewVec(types.Int64)
	v.AppendFrom(col, 2)
	v.AppendFrom(col, 0)
	if v.Len() != 2 || v.Ints[0] != 30 || v.Ints[1] != 10 {
		t.Errorf("AppendFrom result: %v", v.Ints)
	}
}

func TestBatchAndSchema(t *testing.T) {
	schema := Schema{
		{Ref: ColRef{Table: "l", Column: "qty"}, Kind: types.Int64},
		{Ref: ColRef{Column: "rev"}, Kind: types.Float64},
	}
	b := NewBatch(schema)
	if b.Len() != 0 {
		t.Errorf("empty batch len %d", b.Len())
	}
	if schema.IndexOf(ColRef{Table: "l", Column: "qty"}) != 0 {
		t.Error("IndexOf failed")
	}
	if schema.IndexOf(ColRef{Table: "x", Column: "y"}) != -1 {
		t.Error("IndexOf should be -1 for missing")
	}
	if schema.MustIndexOf(ColRef{Column: "rev"}) != 1 {
		t.Error("MustIndexOf failed")
	}
	b.Cols[0].Append(types.NewInt(1))
	b.Cols[1].Append(types.NewFloat(2))
	if b.Len() != 1 {
		t.Errorf("batch len %d", b.Len())
	}
	b.Reset()
	if b.Len() != 0 {
		t.Error("batch reset failed")
	}

	if (ColRef{Table: "l", Column: "qty"}).String() != "l.qty" {
		t.Error("ColRef.String with table")
	}
	if (ColRef{Column: "rev"}).String() != "rev" {
		t.Error("ColRef.String computed")
	}
}

func TestMustIndexOfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustIndexOf should panic for missing column")
		}
	}()
	Schema{}.MustIndexOf(ColRef{Column: "x"})
}
