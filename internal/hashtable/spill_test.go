package hashtable

import (
	"fmt"
	"testing"

	"hashstash/internal/storage"
	"hashstash/internal/types"
)

func spillTestTable(rows int) (*Table, Layout) {
	layout := Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "t", Column: "k"}, Kind: types.String},
			{Ref: storage.ColRef{Table: "t", Column: "v"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "t", Column: "f"}, Kind: types.Float64},
		},
		KeyCols: 1,
		Dict:    storage.NewDict(),
	}
	tbl := New(layout)
	for i := 0; i < rows; i++ {
		tbl.Insert([]uint64{
			tbl.EncodeValue(types.NewString(fmt.Sprintf("key-%d", i%53))),
			uint64(i),
			types.NewFloat(float64(i) / 3).Bits(),
		})
	}
	return tbl, layout
}

func rowMultiset(tab *Table, nCols int) map[string]int {
	m := map[string]int{}
	for e := range int32(tab.Len()) {
		key := ""
		for c := 0; c < nCols; c++ {
			key += fmt.Sprintf("%v|", tab.CellValue(e, c))
		}
		m[key]++
	}
	return m
}

func TestSpillRestoreRoundTrip(t *testing.T) {
	tbl, layout := spillTestTable(500)
	sp := tbl.Spill()
	if sp.Rows() != tbl.Len() {
		t.Fatalf("spill rows = %d, want %d", sp.Rows(), tbl.Len())
	}
	restored := sp.Restore()
	if restored.Len() != tbl.Len() {
		t.Fatalf("restored len = %d, want %d", restored.Len(), tbl.Len())
	}

	want := rowMultiset(tbl, len(layout.Cols))
	got := rowMultiset(restored, len(layout.Cols))
	if len(want) != len(got) {
		t.Fatalf("distinct rows differ: %d vs %d", len(want), len(got))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("row %q: count %d vs %d", k, got[k], n)
		}
	}
}

// TestSpillCompact checks the spill is a compact form: no hash array,
// no bucket directory — strictly smaller than the live table.
func TestSpillCompact(t *testing.T) {
	tbl, _ := spillTestTable(2000)
	sp := tbl.Spill()
	if sp.ByteSize() <= 0 || sp.ByteSize() >= tbl.ByteSize() {
		t.Fatalf("spill %d bytes not compact versus table %d bytes", sp.ByteSize(), tbl.ByteSize())
	}
}
