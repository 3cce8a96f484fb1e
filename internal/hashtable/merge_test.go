package hashtable

import (
	"fmt"
	"testing"

	"hashstash/internal/storage"
	"hashstash/internal/types"
)

func mergeLayout(keyKind types.Kind) Layout {
	return Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "t", Column: "k"}, Kind: keyKind},
			{Ref: storage.ColRef{Table: "t", Column: "v"}, Kind: types.Int64},
		},
		KeyCols: 1,
	}
}

func TestMergeFromIntKeys(t *testing.T) {
	layout := mergeLayout(types.Int64)
	target := New(layout)
	target.Insert([]uint64{1, 100})

	part := New(layout)
	for i := uint64(0); i < 1000; i++ {
		part.Insert([]uint64{i % 50, i}) // duplicate keys chain
	}
	target.MergeFrom(part)

	if got, want := target.Len(), 1001; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if err := target.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Key 1 now matches the pre-existing entry plus 20 merged ones.
	n := 0
	it := target.Probe([]uint64{1})
	for e := it.Next(); e != -1; e = it.Next() {
		n++
	}
	if n != 21 {
		t.Fatalf("probe(1) found %d entries, want 21", n)
	}
}

// TestMergeFromKeepsStringCodes: partials code their strings against
// the one dictionary they share with the target, so a merge carries
// string cells and their hashes over as they are and the merged table
// probes and decodes them like the partial did.
func TestMergeFromKeepsStringCodes(t *testing.T) {
	layout := Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "t", Column: "s"}, Kind: types.String},
			{Ref: storage.ColRef{Table: "t", Column: "v"}, Kind: types.Int64},
		},
		KeyCols: 1,
		Dict:    storage.NewDict(),
	}
	target := New(layout)
	target.Insert([]uint64{target.EncodeValue(types.NewString("zulu")), 0})

	part := New(layout)
	for i := 0; i < 100; i++ {
		part.Insert([]uint64{part.EncodeValue(types.NewString(fmt.Sprintf("s%d", i%10))), uint64(i)})
	}
	target.MergeFrom(part)

	if err := target.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := target.Len(), 101; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	// Every merged entry decodes through the shared dictionary.
	counts := map[string]int{}
	for e := int32(0); e < int32(target.Len()); e++ {
		counts[target.CellValue(e, 0).S]++
	}
	if counts["zulu"] != 1 {
		t.Fatalf("zulu count = %d", counts["zulu"])
	}
	for i := 0; i < 10; i++ {
		if got := counts[fmt.Sprintf("s%d", i)]; got != 10 {
			t.Fatalf("s%d count = %d, want 10", i, got)
		}
	}
	// Probing by the string's code finds the merged entries.
	id, ok := layout.Dict.Lookup("s3")
	if !ok {
		t.Fatal("s3 not in the dictionary")
	}
	n := 0
	it := target.Probe([]uint64{uint64(id)})
	for e := it.Next(); e != -1; e = it.Next() {
		n++
	}
	if n != 10 {
		t.Fatalf("probe(s3) found %d entries, want 10", n)
	}
}

func TestMergeGroupsFromFoldsCells(t *testing.T) {
	layout := mergeLayout(types.Int64)
	target := New(layout)
	// Pre-existing groups 0..4 with v = 1000+k.
	for k := uint64(0); k < 5; k++ {
		e, found := target.Upsert([]uint64{k})
		if found {
			t.Fatal("unexpected existing group")
		}
		target.SetCell(e, 1, 1000+k)
	}
	// Partial: groups 3..9 with v = k.
	part := New(layout)
	for k := uint64(3); k < 10; k++ {
		e, _ := part.Upsert([]uint64{k})
		part.SetCell(e, 1, k)
	}
	created := target.MergeGroupsFrom(part, func(col int, dst, src uint64) uint64 {
		return dst + src // SUM-style fold
	})
	if created != 5 { // groups 5..9 are new
		t.Fatalf("created = %d, want 5", created)
	}
	if target.Len() != 10 {
		t.Fatalf("Len = %d, want 10", target.Len())
	}
	for k := uint64(0); k < 10; k++ {
		e, found := target.Upsert([]uint64{k})
		if !found {
			t.Fatalf("group %d missing", k)
		}
		want := k // new groups copied
		if k < 3 {
			want = 1000 + k // untouched
		} else if k < 5 {
			want = 1000 + 2*k // folded
		}
		if got := target.Cell(e, 1); got != want {
			t.Fatalf("group %d cell = %d, want %d", k, got, want)
		}
	}
	if err := target.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeLayoutMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on layout mismatch")
		}
	}()
	a := New(mergeLayout(types.Int64))
	b := New(Layout{
		Cols:    []storage.ColMeta{{Ref: storage.ColRef{Table: "t", Column: "k"}, Kind: types.Int64}},
		KeyCols: 1,
	})
	a.MergeFrom(b)
}
