package storage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hashstash/internal/types"
)

// fillRandVec populates a vector with n random values of its kind.
func fillRandVec(rng *rand.Rand, v *Vec, n int) {
	strs := []string{"a", "bb", "ccc", "dddd", "eeeee"}
	for i := 0; i < n; i++ {
		switch v.Kind {
		case types.Int64, types.Date:
			v.Ints = append(v.Ints, rng.Int63())
		case types.Float64:
			v.Floats = append(v.Floats, rng.NormFloat64())
		case types.String:
			v.Append(types.NewString(strs[rng.Intn(len(strs))]))
		}
	}
}

// TestAppendGatherPreservesRowOrder is the property test of the
// selection-vector contract: materializing any selection via the bulk
// gather kernel produces exactly the rows the per-row path produces, in
// selection order, for every kind.
func TestAppendGatherPreservesRowOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kinds := []types.Kind{types.Int64, types.Float64, types.String, types.Date}
	for _, kind := range kinds {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(3000)
			src := NewVec(kind)
			fillRandVec(rng, src, n)

			// Random selection: arbitrary subset in arbitrary order, with
			// duplicates allowed (probes select the same row once per match).
			sel := make([]int32, rng.Intn(2*n))
			for i := range sel {
				sel[i] = int32(rng.Intn(n))
			}

			got := NewVec(kind)
			got.AppendGather(src, sel)

			want := NewVec(kind)
			for _, i := range sel {
				want.Append(src.Value(int(i)))
			}

			requireVecEqual(t, got, want)
		}
	}
}

// TestAppendRangeMatchesPerRow checks the contiguous-run kernel against
// the per-row path for every kind and random sub-ranges.
func TestAppendRangeMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	kinds := []types.Kind{types.Int64, types.Float64, types.String, types.Date}
	for _, kind := range kinds {
		n := 500
		src := NewVec(kind)
		fillRandVec(rng, src, n)
		for trial := 0; trial < 20; trial++ {
			start := rng.Intn(n)
			end := start + rng.Intn(n-start)

			got := NewVec(kind)
			got.AppendRange(src, start, end)

			want := NewVec(kind)
			for i := start; i < end; i++ {
				want.Append(src.Value(i))
			}
			requireVecEqual(t, got, want)
		}
	}
}

// TestColumnKernels checks AppendColumnRange/AppendColumnGather against
// the per-row AppendFrom path.
func TestColumnKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	kinds := []types.Kind{types.Int64, types.Float64, types.String, types.Date}
	for _, kind := range kinds {
		col := NewColumn("c", kind)
		vec := NewVec(kind)
		fillRandVec(rng, vec, 400)
		for i := range vec.Len() {
			col.Append(vec.Value(i))
		}

		sel := make([]int32, 100)
		for i := range sel {
			sel[i] = int32(rng.Intn(400))
		}
		got := NewVec(kind)
		got.AppendColumnGather(col, sel)
		got.AppendColumnRange(col, 50, 150)

		want := NewVec(kind)
		for _, i := range sel {
			want.AppendFrom(col, i)
		}
		for i := int32(50); i < 150; i++ {
			want.AppendFrom(col, i)
		}
		requireVecEqual(t, got, want)
	}
}

// TestScratchBuffersIndependent ensures the distinct scratch buffers
// never alias each other within one operator call.
func TestScratchBuffersIndependent(t *testing.T) {
	b := NewBatch(Schema{{Ref: ColRef{Column: "x"}, Kind: types.Int64}})
	sc := b.Scratch()
	sel := sc.SeqSel(64)
	ents := sc.Ents(64)
	hash := sc.Hash(64)
	masks := sc.MasksN(64)
	enc := sc.Enc(2, 64)
	f0 := sc.Floats(0, 64)
	f1 := sc.Floats(1, 64)

	for i := range sel {
		sel[i] = int32(i)
	}
	ents = append(ents, 7, 8, 9)
	for i := range hash {
		hash[i] = uint64(i) * 3
	}
	enc[0][0], enc[1][0] = 11, 22
	f0[0], f1[0] = 1.5, 2.5
	masks[0] = 99

	if sel[0] != 0 || sel[63] != 63 {
		t.Fatal("sel clobbered")
	}
	if ents[0] != 7 {
		t.Fatal("ents clobbered")
	}
	if hash[1] != 3 {
		t.Fatal("hash clobbered")
	}
	if enc[0][0] != 11 || enc[1][0] != 22 {
		t.Fatal("enc columns alias")
	}
	if f0[0] != 1.5 || f1[0] != 2.5 {
		t.Fatal("float scratch depths alias")
	}
	if masks[0] != 99 {
		t.Fatal("masks clobbered")
	}
	// Re-obtaining a buffer with the same size returns the same memory
	// (no steady-state allocation).
	sel2 := sc.Sel(64)
	if &sel2[0] != &sel[0] {
		t.Fatal("Sel reallocated at steady state")
	}
}

func requireVecEqual(t *testing.T, got, want *Vec) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("length: got %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		switch want.Kind {
		case types.Int64, types.Date:
			if got.Ints[i] != want.Ints[i] {
				t.Fatalf("row %d: got %d, want %d", i, got.Ints[i], want.Ints[i])
			}
		case types.Float64:
			if math.Float64bits(got.Floats[i]) != math.Float64bits(want.Floats[i]) {
				t.Fatalf("row %d: got %v, want %v", i, got.Floats[i], want.Floats[i])
			}
		case types.String:
			// The vectors may code against different dictionaries.
			if g, w := got.Value(i).S, want.Value(i).S; g != w {
				t.Fatalf("row %d: got %q, want %q", i, g, w)
			}
		}
	}
}

// TestBatchDeferredColumns: a batch with row ids counts its rows by id,
// gathers a deferred column at the ids once on Materialize, leaves an
// eager column alone, and Reset clears ids and deferrals.
func TestBatchDeferredColumns(t *testing.T) {
	base := NewColumn("v", types.Int64)
	for i := int64(0); i < 10; i++ {
		base.Append(types.NewInt(i * 10))
	}
	b := NewBatch(Schema{{Ref: ColRef{Column: "v"}, Kind: types.Int64}, {Ref: ColRef{Column: "w"}, Kind: types.Int64}})
	b.Defer(0, base)
	b.AppendIDRange(2, 4)
	b.AppendIDs([]int32{7})
	b.Cols[1].Ints = append(b.Cols[1].Ints, 1, 2, 3)
	if b.Len() != 3 || b.Base(0) != base || b.Base(1) != nil {
		t.Fatalf("Len %d, bases %v/%v", b.Len(), b.Base(0), b.Base(1))
	}
	if b.Cols[0].Len() != 0 {
		t.Fatal("a deferred column was gathered before Materialize")
	}
	for range 2 {
		if got := b.Materialize(0).Ints; len(got) != 3 || got[0] != 20 || got[1] != 30 || got[2] != 70 {
			t.Fatalf("materialized %v, want [20 30 70]", got)
		}
	}
	if got := b.Materialize(1).Ints; len(got) != 3 || got[2] != 3 {
		t.Fatalf("eager column %v changed", got)
	}
	b.Reset()
	if _, ok := b.IDs(); ok || b.Len() != 0 || b.Base(0) != nil {
		t.Fatal("Reset kept ids or a deferral")
	}
}

// TestReleasedBatchPinsNothing: Release clears every dictionary,
// base-column pointer, row id and resume point of a batch before
// pooling it, and a released shell laid out for another schema carries
// no rows or deferrals from its previous one.
func TestReleasedBatchPinsNothing(t *testing.T) {
	strCol := NewColumn("s", types.String)
	intCol := NewColumn("i", types.Int64)
	for i := 0; i < 8; i++ {
		strCol.Append(types.NewString(fmt.Sprintf("v%d", i)))
		intCol.Ints = append(intCol.Ints, int64(i))
	}
	b := NewBatch(Schema{
		{Ref: ColRef{Column: "s"}, Kind: types.String},
		{Ref: ColRef{Column: "i"}, Kind: types.Int64},
		{Ref: ColRef{Column: "e"}, Kind: types.String},
	})
	b.AppendIDs([]int32{1, 3, 5})
	b.Defer(0, strCol)
	b.Defer(1, intCol)
	b.Materialize(0)
	b.Materialize(1)
	for _, s := range []string{"x", "y", "z"} {
		b.Cols[2].Append(types.NewString(s))
	}
	b.Scratch().SetResume(2, true)

	b.Release() // single goroutine: nothing else takes the shell meanwhile
	if b.Schema != nil {
		t.Fatal("released batch keeps its schema")
	}
	for c, v := range b.Cols[:cap(b.Cols)] {
		if v == nil {
			continue
		}
		if v.Dict != nil {
			t.Fatalf("column %d pins a dictionary after Release", c)
		}
	}
	for c, col := range b.base[:cap(b.base)] {
		if col != nil {
			t.Fatalf("column %d pins base column %q after Release", c, col.Name)
		}
	}
	if ids, ok := b.IDs(); ok || len(ids) != 0 {
		t.Fatalf("released batch keeps %d row ids (hasIDs %v)", len(ids), ok)
	}
	if _, ok := b.Scratch().Resume(); ok {
		t.Fatal("released batch keeps a resume point")
	}

	// Lay the shell out again for a schema of other kinds and widths.
	next := Schema{
		{Ref: ColRef{Column: "f"}, Kind: types.Float64},
		{Ref: ColRef{Column: "d"}, Kind: types.Date},
	}
	b.reshape(next)
	if b.Len() != 0 {
		t.Fatalf("reused shell holds %d rows", b.Len())
	}
	if len(b.Cols) != len(next) {
		t.Fatalf("reused shell has %d columns, want %d", len(b.Cols), len(next))
	}
	for c, m := range next {
		if v := b.Cols[c]; v.Kind != m.Kind || v.Len() != 0 || len(v.Ints)+len(v.Floats)+len(v.Strs) != 0 {
			t.Fatalf("column %d: kind %v with %d/%d/%d rows, want empty %v", c, v.Kind, len(v.Ints), len(v.Floats), len(v.Strs), m.Kind)
		}
		if b.Base(c) != nil {
			t.Fatalf("column %d still deferred", c)
		}
	}
	b.Cols[0].Floats = append(b.Cols[0].Floats, 1.5)
	b.Cols[1].Ints = append(b.Cols[1].Ints, 9000)
	if got := b.Materialize(0).Floats; len(got) != 1 || got[0] != 1.5 {
		t.Fatalf("reused shell column 0 = %v", got)
	}
	if b.Len() != 1 {
		t.Fatalf("reused shell Len = %d, want 1", b.Len())
	}
}

// TestScratchGrowsWithRows: a fresh batch allocates no vector or
// scratch storage up front, and buffers grow to the rows asked for
// (doubling from a small floor) but never past one batch while the rows
// fit in one.
func TestScratchGrowsWithRows(t *testing.T) {
	v := NewVec(types.Int64)
	if cap(v.Ints) != 0 {
		t.Fatalf("NewVec preallocated %d rows", cap(v.Ints))
	}
	var sc Scratch
	if got := cap(sc.Sel(2)); got > minCap {
		t.Fatalf("two-row selection got capacity %d, want <= %d", got, minCap)
	}
	for n := 1; n <= BatchSize; n = n*3 + 1 {
		sc.Hash(n)
		sc.Enc(2, n)
	}
	sc.Hash(BatchSize)
	if got := cap(sc.Hash(BatchSize)); got != BatchSize {
		t.Fatalf("hash scratch capacity %d after one batch, want %d", got, BatchSize)
	}
	for n := 1; n <= BatchSize; n = n*2 + 3 {
		v.AppendGather(&Vec{Kind: types.Int64, Ints: make([]int64, n)}, make([]int32, n))
		v.Reset()
	}
	v.AppendRange(&Vec{Kind: types.Int64, Ints: make([]int64, BatchSize)}, 0, BatchSize)
	if got := cap(v.Ints); got != BatchSize {
		t.Fatalf("vector capacity %d after one batch, want %d", got, BatchSize)
	}
}
