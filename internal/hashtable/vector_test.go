package hashtable

import (
	"math/rand"
	"testing"

	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// TestHashColumnsMatchesHashKey: the columnar hash kernel must produce
// bit-identical hashes to the row-at-a-time HashKey, or batch probes
// would miss entries inserted row-at-a-time.
func TestHashColumnsMatchesHashKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, nCols := range []int{1, 2, 3, 5} {
		n := 257
		cols := make([][]uint64, nCols)
		for k := range cols {
			cols[k] = make([]uint64, n)
			for i := range cols[k] {
				cols[k][i] = rng.Uint64()
			}
		}
		dst := make([]uint64, n)
		HashColumns(dst, cols)
		key := make([]uint64, nCols)
		for i := 0; i < n; i++ {
			for k := range cols {
				key[k] = cols[k][i]
			}
			if want := HashKey(key); dst[i] != want {
				t.Fatalf("nCols=%d row %d: HashColumns %x != HashKey %x", nCols, i, dst[i], want)
			}
		}
	}
}

func testLayout() Layout {
	return Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "t", Column: "k"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "t", Column: "v"}, Kind: types.Float64},
		},
		KeyCols: 1,
	}
}

// TestInsertHashedEqualsInsert builds the same content through Insert
// and through HashColumns+InsertHashed and verifies identical probes and
// invariants.
func TestInsertHashedEqualsInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := New(testLayout()), New(testLayout())
	const n = 5000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Int63n(1500)) // duplicates chain
		vals[i] = rng.Uint64()
	}
	hashes := make([]uint64, n)
	HashColumns(hashes, [][]uint64{keys})
	for i := 0; i < n; i++ {
		a.Insert([]uint64{keys[i], vals[i]})
		b.InsertHashed(hashes[i], []uint64{keys[i], vals[i]})
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every key must yield the same multiset of values from both tables.
	for probe := uint64(0); probe < 1500; probe++ {
		got := map[uint64]int{}
		it := b.ProbeHashed(HashKey([]uint64{probe}), []uint64{probe})
		for e := it.Next(); e != -1; e = it.Next() {
			got[b.Cell(e, 1)]++
		}
		want := map[uint64]int{}
		it = a.Probe([]uint64{probe})
		for e := it.Next(); e != -1; e = it.Next() {
			want[a.Cell(e, 1)]++
		}
		if len(got) != len(want) {
			t.Fatalf("key %d: %d distinct values, want %d", probe, len(got), len(want))
		}
		for v, c := range want {
			if got[v] != c {
				t.Fatalf("key %d value %x: count %d, want %d", probe, v, got[v], c)
			}
		}
	}
}

// TestUpsertScratchRowIsolation: Upsert's internal scratch row must not
// leak state between upserts (non-key cells of new entries are zero),
// and UpsertHashed must agree with Upsert.
func TestUpsertScratchRowIsolation(t *testing.T) {
	ht := New(testLayout())
	e1, found := ht.Upsert([]uint64{10})
	if found {
		t.Fatal("fresh key reported found")
	}
	ht.SetCell(e1, 1, 0xdeadbeef)
	// A second upsert of a different key must start with a zero cell even
	// though the scratch row was just used.
	e2, found := ht.UpsertHashed(HashKey([]uint64{11}), []uint64{11})
	if found {
		t.Fatal("fresh key reported found")
	}
	if got := ht.Cell(e2, 1); got != 0 {
		t.Fatalf("new entry cell not zeroed: %x", got)
	}
	if e3, found := ht.Upsert([]uint64{10}); !found || e3 != e1 {
		t.Fatalf("re-upsert: entry %d found=%v, want %d true", e3, found, e1)
	}
	if err := ht.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGrowRelinksEveryEntry: across many doublings, each grow relinks
// every entry into the slot its hash selects at the new size — checked
// by CheckInvariants and by every key's matches right after each grow.
func TestGrowRelinksEveryEntry(t *testing.T) {
	ht := New(testLayout())
	const n = 100000
	for i := 0; i < n; i++ {
		before := ht.Resizes()
		ht.Insert([]uint64{types.Mix64(uint64(i)), uint64(i)})
		if ht.Resizes() == before {
			continue
		}
		if err := ht.CheckInvariants(); err != nil {
			t.Fatalf("grow at %d entries: %v", i, err)
		}
		for j := 0; j <= i; j++ {
			it := ht.Probe([]uint64{types.Mix64(uint64(j))})
			e := it.Next()
			if e == -1 || ht.Cell(e, 1) != uint64(j) || it.Next() != -1 {
				t.Fatalf("grow at %d entries: key %d lost or duplicated", i, j)
			}
		}
	}
	if ht.Slots() != 1<<17 || ht.Resizes() != 14 {
		t.Fatalf("slots = %d after %d resizes, want 131072 after 14", ht.Slots(), ht.Resizes())
	}
}

// TestAppendColumnDecodes: the bulk gather kernel must decode cells
// exactly like CellValue for every kind.
func TestAppendColumnDecodes(t *testing.T) {
	layout := Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "t", Column: "k"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "t", Column: "f"}, Kind: types.Float64},
			{Ref: storage.ColRef{Table: "t", Column: "s"}, Kind: types.String},
			{Ref: storage.ColRef{Table: "t", Column: "d"}, Kind: types.Date},
		},
		KeyCols: 1,
		Dict:    storage.NewDict(),
	}
	ht := New(layout)
	rng := rand.New(rand.NewSource(3))
	strs := []string{"x", "yy", "zzz"}
	for i := 0; i < 500; i++ {
		ht.Insert([]uint64{
			uint64(i),
			types.NewFloat(rng.NormFloat64()).Bits(),
			ht.EncodeValue(types.NewString(strs[rng.Intn(len(strs))])),
			uint64(9000 + rng.Int63n(365)),
		})
	}
	ents := make([]int32, 0, 200)
	for i := 0; i < 200; i++ {
		ents = append(ents, int32(rng.Intn(500)))
	}
	for col, m := range layout.Cols {
		vec := storage.NewVec(m.Kind)
		ht.AppendColumn(vec, col, ents)
		if vec.Len() != len(ents) {
			t.Fatalf("col %d: %d rows, want %d", col, vec.Len(), len(ents))
		}
		for i, e := range ents {
			want := ht.CellValue(e, col)
			got := vec.Value(i)
			if !got.Equal(want) || got.Kind != want.Kind {
				t.Fatalf("col %d row %d: got %v, want %v", col, i, got, want)
			}
		}
	}
}
