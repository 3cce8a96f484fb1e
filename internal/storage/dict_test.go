package storage

import (
	"math"
	"slices"
	"testing"

	"hashstash/internal/types"
)

// TestDict: codes are dense, stable and first-seen ordered; Lookup
// never adds a string.
func TestDict(t *testing.T) {
	d := NewDict()
	a, b := d.Intern("x"), d.Intern("y")
	if a != 0 || b != 1 || d.Intern("x") != a {
		t.Fatalf("codes %d, %d: want 0, 1 and a stable x", a, b)
	}
	if d.At(a) != "x" || d.At(b) != "y" {
		t.Fatal("At does not decode")
	}
	if code, ok := d.Lookup("y"); !ok || code != b {
		t.Fatalf("Lookup(y) = %d, %v", code, ok)
	}
	if _, ok := d.Lookup("z"); ok || d.Len() != 2 {
		t.Fatalf("Lookup of an absent string found it or grew the dictionary to %d", d.Len())
	}
}

// TestColumnRecode: re-coding a column into another dictionary keeps
// every decoded value, shares codes with strings already there, and
// interns only the strings the column holds.
func TestColumnRecode(t *testing.T) {
	col := NewColumn("s", types.String)
	for _, s := range []string{"b", "a", "b", "c"} {
		col.Append(types.NewString(s))
	}
	col.Dict.Intern("unused")
	cat := NewDict()
	cat.Intern("c")
	col.Recode(cat)
	if col.Dict != cat {
		t.Fatal("Recode did not adopt the dictionary")
	}
	for i, want := range []string{"b", "a", "b", "c"} {
		if got := col.Value(i).S; got != want {
			t.Fatalf("row %d = %q, want %q", i, got, want)
		}
	}
	if col.Strs[3] != 0 || cat.Len() != 3 {
		t.Fatalf("c coded %d in a dictionary of %d strings, want 0 in 3", col.Strs[3], cat.Len())
	}
	if st := col.Stats(); st.NDV != 3 || st.Min.S != "a" || st.Max.S != "c" {
		t.Fatalf("stats %+v, want NDV 3 over [a, c]", st)
	}
}

// TestRowOrderNaNAboveInf: the float row order is total, in
// types.CompareNum's order: NaN sorts above +Inf and ties only with
// NaN (then by row id), so a sort and a cut heap agree on NaN columns.
func TestRowOrderNaNAboveInf(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	v := &Vec{Kind: types.Float64, Floats: []float64{nan, 1, inf, -inf, nan, 0, -1, inf}}
	for _, desc := range []bool{false, true} {
		want := []int32{3, 6, 5, 1, 2, 7, 0, 4}
		if desc {
			want = []int32{0, 4, 2, 7, 1, 5, 6, 3}
		}
		for _, limit := range []int{0, 3, 7} {
			got := OrderPerm(len(v.Floats), limit, v.RowOrder(desc))
			cut := want
			if limit > 0 {
				cut = want[:limit]
			}
			if !slices.Equal(got, cut) {
				t.Errorf("desc=%v limit=%d: %v, want %v", desc, limit, got, cut)
			}
		}
	}
}
