package hashtable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hashstash/internal/storage"
	"hashstash/internal/types"
)

func meta(table, col string, k types.Kind) storage.ColMeta {
	return storage.ColMeta{Ref: storage.ColRef{Table: table, Column: col}, Kind: k}
}

func joinLayout() Layout {
	return Layout{
		Cols: []storage.ColMeta{
			meta("o", "custkey", types.Int64),
			meta("o", "orderdate", types.Date),
			meta("o", "totalprice", types.Float64),
		},
		KeyCols: 1,
	}
}

func TestLayoutValidate(t *testing.T) {
	l := joinLayout()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.RowWidthBytes() != 24 {
		t.Errorf("RowWidthBytes = %d", l.RowWidthBytes())
	}
	if l.ColIndex(storage.ColRef{Table: "o", Column: "orderdate"}) != 1 {
		t.Error("ColIndex")
	}
	if l.ColIndex(storage.ColRef{Table: "x", Column: "y"}) != -1 {
		t.Error("ColIndex missing")
	}
	bad := Layout{Cols: l.Cols, KeyCols: 7}
	if bad.Validate() == nil {
		t.Error("bad KeyCols accepted")
	}
	dup := Layout{Cols: []storage.ColMeta{l.Cols[0], l.Cols[0]}, KeyCols: 1}
	if dup.Validate() == nil {
		t.Error("duplicate columns accepted")
	}
}

func TestNewPanicsOnBadLayout(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Layout{KeyCols: -1})
}

func TestInsertProbeBasic(t *testing.T) {
	ht := New(joinLayout())
	ht.Insert([]uint64{7, 100, types.NewFloat(1.5).Bits()})
	ht.Insert([]uint64{7, 200, types.NewFloat(2.5).Bits()})
	ht.Insert([]uint64{9, 300, types.NewFloat(3.5).Bits()})
	if ht.Len() != 3 {
		t.Fatalf("Len = %d", ht.Len())
	}

	var dates []uint64
	it := ht.Probe([]uint64{7})
	for e := it.Next(); e != -1; e = it.Next() {
		dates = append(dates, ht.Cell(e, 1))
	}
	if len(dates) != 2 {
		t.Fatalf("probe(7) found %d entries", len(dates))
	}

	it = ht.Probe([]uint64{8})
	if it.Next() != -1 {
		t.Error("probe(8) should find nothing")
	}

	it = ht.Probe([]uint64{9})
	e := it.Next()
	if e == -1 {
		t.Fatal("probe(9) found nothing")
	}
	if v := ht.CellValue(e, 2); v.Kind != types.Float64 || v.F != 3.5 {
		t.Errorf("CellValue = %v", v)
	}
	if v := ht.CellValue(e, 1); v.Kind != types.Date || v.I != 300 {
		t.Errorf("CellValue date = %v", v)
	}
	if err := ht.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertWrongArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(joinLayout()).Insert([]uint64{1})
}

func TestProbeWrongArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(joinLayout()).Probe([]uint64{1, 2})
}

// TestAppendColumnEmptyTable: a probe batch that matched nothing in an
// empty table gathers nothing from any payload column (the payload is
// empty, so slicing it at a column offset used to panic).
func TestAppendColumnEmptyTable(t *testing.T) {
	ht := New(joinLayout()).Freeze()
	for col := range joinLayout().Cols {
		var dst storage.Vec
		ht.AppendColumn(&dst, col, nil)
		if len(dst.Ints)+len(dst.Floats) != 0 {
			t.Errorf("column %d: gathered %d cells from an empty table", col, len(dst.Ints)+len(dst.Floats))
		}
	}
}

func TestUpsertAggregate(t *testing.T) {
	layout := Layout{
		Cols: []storage.ColMeta{
			meta("c", "age", types.Int64),
			meta("", "sum", types.Float64),
			meta("", "count", types.Int64),
		},
		KeyCols: 1,
	}
	ht := New(layout)
	add := func(age int64, price float64) {
		e, found := ht.Upsert([]uint64{uint64(age)})
		if !found {
			ht.SetCell(e, 1, types.NewFloat(0).Bits())
			ht.SetCell(e, 2, 0)
		}
		sum := types.FromBits(types.Float64, ht.Cell(e, 1)).F
		ht.SetCell(e, 1, types.NewFloat(sum+price).Bits())
		ht.SetCell(e, 2, ht.Cell(e, 2)+1)
	}
	add(30, 10)
	add(30, 20)
	add(40, 5)
	if ht.Len() != 2 {
		t.Fatalf("Len = %d", ht.Len())
	}
	e, found := ht.Upsert([]uint64{30})
	if !found {
		t.Fatal("upsert(30) should find existing group")
	}
	if sum := types.FromBits(types.Float64, ht.Cell(e, 1)).F; sum != 30 {
		t.Errorf("sum = %f", sum)
	}
	if cnt := ht.Cell(e, 2); cnt != 2 {
		t.Errorf("count = %d", cnt)
	}
}

func TestUpsertWrongArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(joinLayout()).Upsert([]uint64{1, 2, 3})
}

// TestStringInterning: a string cell is the string's code in the
// layout's dictionary, stable across encodings, probed by code and
// decoded back through the dictionary; the table holds no strings of
// its own.
func TestStringInterning(t *testing.T) {
	layout := Layout{
		Cols: []storage.ColMeta{
			meta("c", "seg", types.String),
			meta("", "count", types.Int64),
		},
		KeyCols: 1,
		Dict:    storage.NewDict(),
	}
	ht := New(layout)
	idA := ht.EncodeValue(types.NewString("BUILDING"))
	idB := ht.EncodeValue(types.NewString("AUTOMOBILE"))
	if idA == idB {
		t.Fatal("distinct strings share an id")
	}
	if ht.EncodeValue(types.NewString("BUILDING")) != idA {
		t.Error("interning not stable")
	}
	ht.Insert([]uint64{idA, 1})
	it := ht.Probe([]uint64{idA})
	e := it.Next()
	if e == -1 {
		t.Fatal("probe by interned id failed")
	}
	if v := ht.CellValue(e, 0); v.S != "BUILDING" {
		t.Errorf("decoded string = %q", v.S)
	}
	if layout.Dict.Len() != 2 {
		t.Errorf("dictionary size = %d", layout.Dict.Len())
	}
	if got, want := ht.ByteSize(), New(layout).ByteSize()+8+4+16; got != want {
		t.Errorf("ByteSize = %d, want %d: one entry's hash, link and two cells", got, want)
	}
	nodict := layout
	nodict.Dict = nil
	if err := nodict.Validate(); err == nil {
		t.Error("a layout with a string column and no dictionary validated")
	}
}

// TestGrowthAndInvariants: the load stays at most 1 after every insert
// (the table doubles when its entry count reaches the slot count), every
// doubling relinks once, and the grown table passes its invariants and
// finds every key.
func TestGrowthAndInvariants(t *testing.T) {
	layout := Layout{Cols: []storage.ColMeta{meta("t", "k", types.Int64), meta("t", "v", types.Int64)}, KeyCols: 1}
	ht := New(layout)
	const n = 50000
	for i := 0; i < n; i++ {
		ht.Insert([]uint64{uint64(i), uint64(i * 2)})
		if ht.Len() > ht.Slots() {
			t.Fatalf("after %d inserts: %d entries in %d slots", i+1, ht.Len(), ht.Slots())
		}
	}
	if ht.Len() != n {
		t.Fatalf("Len = %d", ht.Len())
	}
	// 8 → 65536 slots: 13 doublings, one relink each.
	if ht.Slots() != 1<<16 || ht.Resizes() != 13 {
		t.Errorf("slots = %d after %d resizes, want 65536 after 13", ht.Slots(), ht.Resizes())
	}
	if err := ht.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every key findable with the right value.
	for i := 0; i < n; i += 997 {
		it := ht.Probe([]uint64{uint64(i)})
		e := it.Next()
		if e == -1 {
			t.Fatalf("key %d missing", i)
		}
		if ht.Cell(e, 1) != uint64(i*2) {
			t.Fatalf("key %d value = %d", i, ht.Cell(e, 1))
		}
		if it.Next() != -1 {
			t.Fatalf("key %d duplicated", i)
		}
	}
	if ht.ByteSize() < int64(n)*16 {
		t.Errorf("ByteSize = %d, implausibly small", ht.ByteSize())
	}
}

// maxChainPerProbe bounds the mean chain nodes a probe of a present key
// visits (ProbeStats ChainNodes/Probes) at load ≤ 1: its own entry plus
// about one other entry hashed to the same slot. BenchmarkWidenedProbe
// gates on the same bound.
const maxChainPerProbe = 2.1

// TestProbeChainBound: probing each of 4,096 distinct keys once through
// the batched path finds each exactly once and visits at most
// maxChainPerProbe chain nodes per probe. The keys are fixed, so the
// ratio repeats exactly.
func TestProbeChainBound(t *testing.T) {
	const n = 4096
	ht := New(testLayout())
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = types.Mix64(uint64(i))
		ht.Insert([]uint64{keys[i], uint64(i)})
	}
	rows, ents := batchProbe(ht.Freeze(), keys)
	if len(rows) != n {
		t.Fatalf("%d matches for %d distinct keys", len(rows), n)
	}
	for i, r := range rows {
		if ht.Cell(ents[i], 1) != uint64(r) {
			t.Fatalf("key %d matched entry %d", r, ents[i])
		}
	}
	ps := ht.ProbeStats()
	if chain := float64(ps.ChainNodes) / float64(ps.Probes); ps.Probes != n || chain > maxChainPerProbe {
		t.Fatalf("%d probes visited %.3f chain nodes each, want %d probes at ≤ %.1f", ps.Probes, chain, n, maxChainPerProbe)
	}
}

func TestSkewedKeysDegradeGracefully(t *testing.T) {
	// Many duplicates of one key share one chain however often the table
	// doubles; the table must stay correct (that chain just gets long).
	layout := Layout{Cols: []storage.ColMeta{meta("t", "k", types.Int64), meta("t", "v", types.Int64)}, KeyCols: 1}
	ht := New(layout)
	for i := 0; i < 5000; i++ {
		ht.Insert([]uint64{42, uint64(i)})
	}
	if err := ht.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	count := 0
	it := ht.Probe([]uint64{42})
	for it.Next() != -1 {
		count++
	}
	if count != 5000 {
		t.Errorf("found %d duplicates, want 5000", count)
	}
}

// Property: the hash table agrees with a map oracle under random
// insert/upsert/probe interleavings.
func TestOracleProperty(t *testing.T) {
	layout := Layout{Cols: []storage.ColMeta{meta("t", "k", types.Int64), meta("t", "v", types.Int64)}, KeyCols: 1}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ht := New(layout)
		oracle := make(map[uint64][]uint64)
		for op := 0; op < 2000; op++ {
			k := uint64(r.Intn(200))
			switch r.Intn(3) {
			case 0: // insert duplicate-friendly
				v := uint64(r.Intn(1000))
				ht.Insert([]uint64{k, v})
				oracle[k] = append(oracle[k], v)
			case 1: // upsert: create-if-absent
				e, found := ht.Upsert([]uint64{k})
				if found != (len(oracle[k]) > 0) {
					return false
				}
				if !found {
					ht.SetCell(e, 1, 777)
					oracle[k] = append(oracle[k], 777)
				}
			case 2: // probe: multiset equality
				got := map[uint64]int{}
				it := ht.Probe([]uint64{k})
				for e := it.Next(); e != -1; e = it.Next() {
					got[ht.Cell(e, 1)]++
				}
				want := map[uint64]int{}
				for _, v := range oracle[k] {
					want[v]++
				}
				if len(got) != len(want) {
					return false
				}
				for v, n := range want {
					if got[v] != n {
						return false
					}
				}
			}
		}
		return ht.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: multi-column keys probe correctly.
func TestMultiColumnKeyProperty(t *testing.T) {
	layout := Layout{
		Cols:    []storage.ColMeta{meta("t", "a", types.Int64), meta("t", "b", types.Int64), meta("t", "v", types.Int64)},
		KeyCols: 2,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ht := New(layout)
		type key struct{ a, b uint64 }
		oracle := map[key]uint64{}
		for i := 0; i < 500; i++ {
			k := key{uint64(r.Intn(30)), uint64(r.Intn(30))}
			if _, dup := oracle[k]; dup {
				continue
			}
			v := uint64(i)
			oracle[k] = v
			ht.Insert([]uint64{k.a, k.b, v})
		}
		for k, v := range oracle {
			it := ht.Probe([]uint64{k.a, k.b})
			e := it.Next()
			if e == -1 || ht.Cell(e, 2) != v || it.Next() != -1 {
				return false
			}
		}
		// Missing keys stay missing.
		it := ht.Probe([]uint64{999, 999})
		return it.Next() == -1 && ht.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestHashKeyDistribution(t *testing.T) {
	// Low bits must vary: count distinct low-8-bit patterns of hashes of
	// sequential keys (a key's slot is its hash's low bits).
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1024; i++ {
		seen[HashKey([]uint64{i})&0xff] = true
	}
	if len(seen) < 200 {
		t.Errorf("only %d of 256 low-bit patterns seen", len(seen))
	}
}
