package hashtable

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// widenDict codes the string cells of every widenLayout table, the way
// one catalog's dictionary codes all of a database's tables.
var widenDict = storage.NewDict()

func widenLayout() Layout {
	return Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "t", Column: "k"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "t", Column: "s"}, Kind: types.String},
			{Ref: storage.ColRef{Table: "t", Column: "v"}, Kind: types.Float64},
		},
		KeyCols: 1,
		Dict:    widenDict,
	}
}

// code returns the string cell of s, interning it into widenDict.
// Interning writes the dictionary: concurrent tests call it before they
// start their goroutines.
func code(s string) uint64 { return uint64(widenDict.Intern(s)) }

func buildWidenBase(n int) *Table {
	t := New(widenLayout())
	for i := 0; i < n; i++ {
		t.Insert([]uint64{uint64(i), code(fmt.Sprintf("s%d", i%7)), types.NewFloat(float64(i)).Bits()})
	}
	return t
}

// probeAll collects the entries matching key k.
func probeAll(t *Table, k uint64) []int32 {
	var out []int32
	it := t.Probe([]uint64{k})
	for e := it.Next(); e != -1; e = it.Next() {
		out = append(out, e)
	}
	return out
}

// batchProbe probes every key of a single-int64-key table through the
// batched path, returning the (row, entry) match pairs.
func batchProbe(tbl *Table, keys []uint64) (rows, ents []int32) {
	n := len(keys)
	enc := [][]uint64{keys}
	hashes := make([]uint64, n)
	HashColumns(hashes, enc)
	cur := make([]int32, n)
	return tbl.ProbeHashedColumn(cur, hashes, enc, nil, nil)
}

func TestFreezePanicsOnMutation(t *testing.T) {
	ht := buildWidenBase(10).Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Insert on frozen table did not panic")
		}
	}()
	ht.Insert([]uint64{99, 0, 0})
}

// image is a deep copy of every arena of a table, for bit-identity
// checks.
type image struct {
	heads   []int32
	hashes  []uint64
	next    []int32
	payload []uint64
}

func imageOf(t *Table) image {
	return image{
		heads:  slices.Clone(t.heads),
		hashes: slices.Clone(t.hashes), next: slices.Clone(t.next),
		payload: slices.Clone(t.payload),
	}
}

func (im image) same(t *Table) bool {
	return slices.Equal(im.heads, t.heads) &&
		slices.Equal(im.hashes, t.hashes) && slices.Equal(im.next, t.next) &&
		slices.Equal(im.payload, t.payload)
}

// joinRows decodes the matches of key k, sorted for multiset comparison.
func joinRows(tbl *Table, k uint64) []string {
	var out []string
	for _, e := range probeAll(tbl, k) {
		out = append(out, fmt.Sprintf("%d|%s|%v", int64(tbl.Cell(e, 0)), tbl.CellValue(e, 1).S, tbl.CellValue(e, 2)))
	}
	sort.Strings(out)
	return out
}

// TestWidenSharesBaseAndAppendsDelta: a widened copy carries every
// entry of its source under the same entry id and appends the delta
// after them. Base entries are visible through the copy, delta entries
// are invisible through the frozen source, and string cells decode
// through the shared dictionary from both.
func TestWidenSharesBaseAndAppendsDelta(t *testing.T) {
	base := buildWidenBase(1000)
	baseLen := base.Len()
	w := base.Widen(200)
	if !base.Frozen() {
		t.Fatal("Widen must freeze the source")
	}
	if w.Frozen() {
		t.Fatal("widened table must be mutable")
	}
	before := imageOf(base)
	for i := 1000; i < 1200; i++ {
		w.Insert([]uint64{uint64(i), code("new"), types.NewFloat(float64(i)).Bits()})
	}
	if !before.same(base) {
		t.Fatal("appending the delta changed the frozen base")
	}
	if w.Len() != baseLen+200 {
		t.Fatalf("widened table has %d entries, want %d", w.Len(), baseLen+200)
	}
	for e := range int32(baseLen) {
		for c := range w.nCols {
			if w.Cell(e, c) != base.Cell(e, c) {
				t.Fatalf("entry %d col %d: copy %d, base %d", e, c, w.Cell(e, c), base.Cell(e, c))
			}
		}
	}
	if got := probeAll(w, 42); len(got) != 1 || got[0] != 42 {
		t.Fatalf("base key probes %v through widened table, want [42]", got)
	}
	if got := probeAll(w, 1100); len(got) != 1 {
		t.Fatalf("delta key probes %d entries", len(got))
	}
	if got := probeAll(base, 1100); len(got) != 0 {
		t.Fatalf("delta key visible through frozen base: %v", got)
	}
	if v := w.CellValue(42, 1); v.S != "s0" {
		t.Fatalf("base string cell = %q", v.S)
	}
	if v := w.CellValue(int32(w.Len()-1), 1); v.S != "new" {
		t.Fatalf("delta string cell = %q", v.S)
	}
	if v := base.CellValue(42, 1); v.S != "s0" {
		t.Fatalf("base string cell through the source = %q", v.S)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := base.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWidenShadowPromotion: folding into a group the widened copy
// inherited updates the copy's own entry for it — no second entry, and
// the frozen source keeps its cell. The second half runs random
// generations of widen + upsert-and-fold, each widening a random earlier
// snapshot with a random headroom, against model maps: after every
// generation copy and source both hold exactly one entry per group with
// the model's sum, and the source is bit-identical to its image from
// before the widening.
func TestWidenShadowPromotion(t *testing.T) {
	base := buildWidenBase(100)
	w := base.Widen(0)
	e, found := w.Upsert([]uint64{42})
	if !found {
		t.Fatal("existing key not found")
	}
	w.SetCell(e, 2, types.NewFloat(999).Bits())
	if got := w.CellValue(e, 2).F; got != 999 {
		t.Fatalf("updated cell = %v", got)
	}
	if got := base.CellValue(42, 2).F; got != 42 {
		t.Fatalf("frozen base cell mutated: %v", got)
	}
	if got := probeAll(w, 42); len(got) != 1 || got[0] != e {
		t.Fatalf("probe after update = %v, want [%d]", got, e)
	}
	if w.Len() != 100 {
		t.Fatalf("upserting an existing key changed the entry count: %d", w.Len())
	}
	if e2, found := w.Upsert([]uint64{42}); !found || e2 != e {
		t.Fatalf("re-upsert = (%d,%v), want (%d,true)", e2, found, e)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(43))
	const keySpace = 300
	layout := Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "t", Column: "g"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "t", Column: "sum"}, Kind: types.Int64},
		},
		KeyCols: 1,
	}
	type gen struct {
		tbl   *Table
		model map[uint64]uint64
	}
	fold := func(g gen, k, v uint64) {
		e, found := g.tbl.Upsert([]uint64{k})
		if found != (g.model[k] != 0) {
			t.Fatalf("key %d: Upsert found=%v, model has %d", k, found, g.model[k])
		}
		g.tbl.SetCell(e, 1, g.tbl.Cell(e, 1)+v)
		g.model[k] += v
	}
	gens := []gen{{New(layout), map[uint64]uint64{}}}
	for i := 0; i < 100; i++ {
		fold(gens[0], uint64(rng.Intn(keySpace)), uint64(1+rng.Intn(9)))
	}
	gens[0].tbl.Freeze()
	for g := 1; g <= 12; g++ {
		src := gens[rng.Intn(len(gens))]
		before := imageOf(src.tbl)
		delta := 1 + rng.Intn(200)
		next := gen{src.tbl.Widen(rng.Intn(delta)), map[uint64]uint64{}}
		for k, v := range src.model {
			next.model[k] = v
		}
		for i := 0; i < delta; i++ {
			fold(next, uint64(rng.Intn(keySpace)), uint64(1+rng.Intn(9)))
		}
		if err := next.tbl.CheckInvariants(); err != nil {
			t.Fatalf("gen %d: %v", g, err)
		}
		if !before.same(src.tbl) {
			t.Fatalf("gen %d: folding into the copy changed its frozen source", g)
		}
		for _, cur := range []gen{next, src} {
			if cur.tbl.Len() != len(cur.model) {
				t.Fatalf("gen %d: %d groups, model %d", g, cur.tbl.Len(), len(cur.model))
			}
			for k, v := range cur.model {
				got := probeAll(cur.tbl, k)
				if len(got) != 1 || cur.tbl.Cell(got[0], 1) != v {
					t.Fatalf("gen %d key %d: entries %v, want one with sum %d", g, k, got, v)
				}
			}
		}
		next.tbl.Freeze()
		gens = append(gens, next)
	}
}

// TestRehashEquivalenceProperty runs random generations of widen +
// insert on a join table with duplicate keys and a string column, each
// widening a random earlier snapshot (not always the newest) with a
// random headroom. Headroom below the delta makes the inserts double
// the copy's slot array, relinking entries the copy inherited; none of
// that may be visible. Right after every such grow, every key's matches
// equal the model's. After every generation:
//   - the copy answers exactly like its model, through the iterator and
//     the batched probe path alike (same pairs, same order);
//   - the copy passes the structural invariants;
//   - the frozen source is bit-identical to its image from before the
//     widening, and still answers like its own model.
func TestRehashEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const keySpace = 300
	type gen struct {
		tbl   *Table
		model map[uint64][]string
	}
	root := New(widenLayout())
	gens := []gen{{root, map[uint64][]string{}}}
	insert := func(g gen, k uint64, s string, f float64) {
		g.tbl.Insert([]uint64{k, code(s), types.NewFloat(f).Bits()})
		g.model[k] = append(g.model[k], fmt.Sprintf("%d|%s|%v", int64(k), s, f))
	}
	for i := 0; i < 200; i++ {
		insert(gens[0], uint64(rng.Intn(keySpace)), fmt.Sprintf("s%d", rng.Intn(9)), float64(i))
	}
	root.Freeze()
	grew := false
	for g := 1; g <= 12; g++ {
		src := gens[rng.Intn(len(gens))]
		before := imageOf(src.tbl)
		delta := 1 + rng.Intn(3*src.tbl.Len()/2+1)
		next := gen{src.tbl.Widen(rng.Intn(2 * delta)), map[uint64][]string{}}
		for k, rows := range src.model {
			next.model[k] = slices.Clone(rows)
		}
		if next.tbl.Frozen() || !src.tbl.Frozen() {
			t.Fatalf("gen %d: Widen must return a mutable copy of a frozen source", g)
		}
		for i := 0; i < delta; i++ {
			resizes := next.tbl.Resizes()
			// Fresh strings land in the copy's heap only.
			insert(next, uint64(rng.Intn(keySpace)), fmt.Sprintf("s%d", rng.Intn(9+g)), float64(1000*g+i))
			if next.tbl.Resizes() == resizes {
				continue
			}
			grew = true
			for k := range uint64(keySpace) {
				want := slices.Clone(next.model[k])
				sort.Strings(want)
				if got := joinRows(next.tbl, k); !slices.Equal(got, want) {
					t.Fatalf("gen %d, grow at %d entries, key %d: %v, want %v", g, next.tbl.Len(), k, got, want)
				}
			}
		}
		if err := next.tbl.CheckInvariants(); err != nil {
			t.Fatalf("gen %d: %v", g, err)
		}
		if !before.same(src.tbl) {
			t.Fatalf("gen %d: mutating the copy changed its frozen source", g)
		}
		keys := make([]uint64, keySpace)
		for i := range keys {
			keys[i] = uint64(i)
		}
		rows, ents := batchProbe(next.tbl, keys)
		var wantRows, wantEnts []int32
		for k := range keys {
			want := slices.Clone(next.model[uint64(k)])
			sort.Strings(want)
			if got := joinRows(next.tbl, uint64(k)); !slices.Equal(got, want) {
				t.Fatalf("gen %d key %d: copy probes %v, want %v", g, k, got, want)
			}
			srcWant := slices.Clone(src.model[uint64(k)])
			sort.Strings(srcWant)
			if got := joinRows(src.tbl, uint64(k)); !slices.Equal(got, srcWant) {
				t.Fatalf("gen %d key %d: source probes %v, want %v", g, k, got, srcWant)
			}
			for _, e := range probeAll(next.tbl, uint64(k)) {
				wantRows, wantEnts = append(wantRows, int32(k)), append(wantEnts, e)
			}
		}
		if !slices.Equal(rows, wantRows) || !slices.Equal(ents, wantEnts) {
			t.Fatalf("gen %d: batched probe disagrees with the iterator", g)
		}
		next.tbl.Freeze()
		gens = append(gens, next)
	}
	if !grew {
		t.Fatal("inserts into widened copies never grew one")
	}
}

// TestWidenedCopyGrows: a widened copy owns its slot array, so inserts
// past its headroom double it and relink every entry, inherited ones
// included, exactly as in a freshly built table.
func TestWidenedCopyGrows(t *testing.T) {
	w := buildWidenBase(256).Widen(4096)
	before := w.Resizes()
	const batches, perBatch = 4, 1024
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			k := uint64(100000 + b*perBatch + i)
			w.Insert([]uint64{k, code("x"), 0})
		}
	}
	// Headroom is capped at the source's 256 entries: 512 → 8192 slots.
	if w.Resizes()-before != 4 || w.Slots() != 8192 {
		t.Fatalf("%d resizes to %d slots for %d inserts into a widened copy", w.Resizes()-before, w.Slots(), batches*perBatch)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{0, 255, 100000, uint64(100000 + batches*perBatch - 1)} {
		if got := probeAll(w, k); len(got) != 1 {
			t.Fatalf("key %d probes %d entries after growing", k, len(got))
		}
	}
}

// TestSizedOnceWhenCountKnown: where the final entry count is known up
// front — a widening's estimated delta, a cold-tier revival, a parallel
// build's merge — the slot array is sized once and the inserts never
// regrow it.
func TestSizedOnceWhenCountKnown(t *testing.T) {
	src := buildWidenBase(1000).Freeze() // 1024 slots
	w := src.Widen(300)
	if w.Resizes()-src.Resizes() != 1 || w.Slots() != 2048 {
		t.Fatalf("Widen(300) of 1000 entries: %d resizes to %d slots, want 1 to 2048", w.Resizes()-src.Resizes(), w.Slots())
	}
	resizes := w.Resizes()
	for i := 0; i < 300; i++ {
		w.Insert([]uint64{uint64(5000 + i), code("x"), 0})
	}
	if w.Resizes() != resizes {
		t.Fatalf("delta within the headroom regrew the copy %d times", w.Resizes()-resizes)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if v := src.Widen(10); v.Resizes() != src.Resizes() || v.Slots() != src.Slots() {
		t.Fatalf("Widen(10) of 1000 entries in 1024 slots relinked to %d slots", v.Slots())
	}

	r := w.Freeze().Spill().Restore()
	if r.Resizes() != 1 || r.Slots() != 2048 || r.Len() != 1300 {
		t.Fatalf("Restore of 1300 rows: %d resizes to %d slots, %d entries", r.Resizes(), r.Slots(), r.Len())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	parts := []*Table{buildWidenBase(700), buildWidenBase(700), buildWidenBase(700)}
	m := New(widenLayout())
	m.MergeFrom(parts...)
	if m.Resizes() != 1 || m.Slots() != 4096 || m.Len() != 2100 {
		t.Fatalf("merge of 3×700 entries: %d resizes to %d slots, %d entries", m.Resizes(), m.Slots(), m.Len())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWidenChainAndCompaction widens a lineage generation after
// generation. Copy widening compacts at every step: however long the
// chain, each generation is one flat table whose mean probe chain
// equals a freshly built table's with the same content.
func TestWidenChainAndCompaction(t *testing.T) {
	cur := buildWidenBase(64)
	total := 64
	for round := 0; round < 12; round++ {
		w := cur.Widen(16)
		for i := 0; i < 16; i++ {
			k := uint64(total + i)
			w.Insert([]uint64{k, code("x"), types.NewFloat(float64(k)).Bits()})
		}
		total += 16
		if w.Len() != total {
			t.Fatalf("round %d: len %d want %d", round, w.Len(), total)
		}
		for _, k := range []uint64{0, 42, uint64(total - 1)} {
			if got := probeAll(w, k); len(got) != 1 {
				t.Fatalf("round %d: key %d probes %d entries", round, k, len(got))
			}
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		cur = w
	}
	fresh := New(widenLayout())
	for k := 0; k < total; k++ {
		fresh.Insert([]uint64{uint64(k), code("x"), 0})
	}
	keys := make([]uint64, total)
	for i := range keys {
		keys[i] = uint64(i)
	}
	batchProbe(cur, keys)
	batchProbe(fresh, keys)
	if a, b := cur.ProbeStats(), fresh.ProbeStats(); a != b {
		t.Fatalf("widened lineage probes %+v, fresh table %+v", a, b)
	}
}

// TestConcurrentWidenOfOneSnapshot widens one published snapshot from
// several goroutines at once — the shape two racing partial-reuse
// queries produce. Run with -race: Freeze must be concurrency-safe and
// each widener's copy private.
func TestConcurrentWidenOfOneSnapshot(t *testing.T) {
	base := buildWidenBase(256).Freeze()
	cell := code("w")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wt := base.Widen(64)
			for i := 0; i < 64; i++ {
				k := uint64(1000 + w*100 + i)
				wt.Insert([]uint64{k, cell, types.NewFloat(float64(k)).Bits()})
			}
			if err := wt.CheckInvariants(); err != nil {
				t.Error(err)
			}
			if got := probeAll(wt, uint64(1000+w*100)); len(got) != 1 {
				t.Errorf("worker %d delta key probes %d entries", w, len(got))
			}
		}(w)
	}
	wg.Wait()
	if base.Len() != 256 {
		t.Fatalf("base mutated: %d entries", base.Len())
	}
	if err := base.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWithColumnView: the view reads one column from the caller's
// values and everything else from the shared arenas, is frozen, and
// leaves the table it views untouched.
func TestWithColumnView(t *testing.T) {
	base := buildWidenBase(50)
	vals := make([]uint64, base.Len())
	for i := range vals {
		vals[i] = uint64(i % 3)
	}
	v := base.WithColumn(2, vals)
	if !v.Frozen() || !base.Frozen() {
		t.Fatal("the view and its table must both be frozen")
	}
	for e := range int32(v.Len()) {
		if v.Cell(e, 2) != uint64(int(e)%3) {
			t.Fatalf("view cell %d = %d", e, v.Cell(e, 2))
		}
		if got := base.CellValue(e, 2).F; got != float64(e) {
			t.Fatalf("base cell %d changed through the view: %v", e, got)
		}
	}
	var got storage.Vec
	v.AppendColumn(&got, 2, []int32{4, 5})
	if len(got.Ints) != 2 || got.Ints[0] != 1 || got.Ints[1] != 2 {
		t.Fatalf("AppendColumn through the view = %v", got.Ints)
	}
	if e := probeAll(v, 7); len(e) != 1 || v.CellValue(e[0], 1).S != "s0" {
		t.Fatal("the view does not probe its table's entries")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WithColumn with the wrong number of values did not panic")
		}
	}()
	base.WithColumn(2, vals[1:])
}

func TestWidenMergeGroupsPromotes(t *testing.T) {
	// Aggregate-style table: key + one sum cell. Merging into a widened
	// copy folds existing groups in place and adds new ones; the source
	// keeps its cells.
	layout := Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "t", Column: "g"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "t", Column: "sum"}, Kind: types.Float64},
		},
		KeyCols: 1,
	}
	base := New(layout)
	for i := 0; i < 10; i++ {
		e, _ := base.Upsert([]uint64{uint64(i)})
		base.SetCell(e, 1, types.NewFloat(float64(i)).Bits())
	}
	w := base.Widen(5)
	part := New(layout)
	for i := 5; i < 15; i++ {
		e, _ := part.Upsert([]uint64{uint64(i)})
		part.SetCell(e, 1, types.NewFloat(100).Bits())
	}
	created := w.MergeGroupsFrom(part, func(col int, dst, src uint64) uint64 {
		return types.NewFloat(types.FromBits(types.Float64, dst).F + types.FromBits(types.Float64, src).F).Bits()
	})
	if created != 5 {
		t.Fatalf("created %d groups, want 5", created)
	}
	if w.Len() != 15 {
		t.Fatalf("groups %d, want 15", w.Len())
	}
	// Folded group: 7 + 100; untouched group: 3; fresh group: 100.
	checks := map[uint64]float64{7: 107, 3: 3, 12: 100}
	for k, want := range checks {
		e, found := w.Upsert([]uint64{k})
		if !found {
			t.Fatalf("group %d missing", k)
		}
		if got := w.CellValue(e, 1).F; got != want {
			t.Fatalf("group %d sum = %v, want %v", k, got, want)
		}
	}
	// Base snapshot untouched.
	for i := 0; i < 10; i++ {
		got := probeAll(base, uint64(i))
		if len(got) != 1 {
			t.Fatalf("base group %d probes %d", i, len(got))
		}
		if v := base.CellValue(got[0], 1).F; v != float64(i) {
			t.Fatalf("base group %d mutated: %v", i, v)
		}
	}
}
