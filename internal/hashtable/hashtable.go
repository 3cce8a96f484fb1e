// Package hashtable implements the chained hash table that HashStash
// caches and reuses. It is the data structure a hash join's build phase
// and a hash aggregation materialize at a pipeline breaker.
//
// Design, following Section 3.2 of the paper:
//
//   - One chain per slot: a power-of-two array of chain heads, slot
//     h & (slots-1). The table doubles when its entry count reaches the
//     slot count, so the load stays at most 1 and a probe walks about
//     one entry besides its matches. Growing relinks every entry in one
//     sequential pass over the hash arena (c_resize in the cost model);
//     when the final count is known up front (Widen, Spill.Restore,
//     MergeFrom) the slots are sized once and the inserts never regrow.
//
//   - Entries live in flat, append-only arenas (hash array, chain-link
//     array, one contiguous payload array of fixed-width rows). There is
//     no per-entry allocation: Go's GC never traverses entries. A string
//     cell is the string's code in the catalog's dictionary
//     (Layout.Dict), the same code its base column stores, so builds,
//     probes, merges and revivals move strings as integers and no table
//     keeps strings of its own.
//
//   - A row is len(Layout.Cols) 8-byte cells; the first KeyCols cells
//     form the equality key. Join tables use Insert (duplicate keys
//     chain), aggregation tables use Upsert (find-or-create) and update
//     aggregate cells in place.
//
// # Snapshots and widening by copy
//
// Cached tables are published as immutable snapshots (Freeze): every
// later mutation panics, so any number of queries probe a published
// table lock-free. Partial and overlapping reuse — the paper's
// "insert the missing tuples into the cached table" — widen a
// snapshot through Widen, which returns a private deep copy: the slot
// array and entry arenas are pointer-free and copy in bulk. The
// widening query inserts and upserts into the copy in place and the
// cache publishes it with a compare-and-swap; queries still probing
// the source are untouched, and the garbage collector frees the
// source once the last of them finishes. Every table, widened or not,
// therefore has the same flat layout and the same probe cost as a
// freshly built one.
//
// Shared plans re-tag a cached table's query-id column per batch.
// WithColumn serves that as a read-only view sharing every arena of the
// snapshot, with one column's values supplied by the caller.
package hashtable

import (
	"fmt"
	"slices"
	"sync/atomic"

	"hashstash/internal/storage"
	"hashstash/internal/types"
)

const minSlots = 8 // slot count of an empty table

// Layout describes the fixed-width payload row of a hash table.
type Layout struct {
	// Cols lists the payload columns in row order.
	Cols []storage.ColMeta
	// KeyCols is the number of leading columns forming the equality key.
	KeyCols int
	// Dict is the dictionary the string cells are codes of; a layout
	// with a string column must have one.
	Dict *storage.Dict
}

// RowWidthBytes reports the row width in bytes (the cost model's tWidth).
func (l Layout) RowWidthBytes() int { return len(l.Cols) * 8 }

// ColIndex returns the position of ref in the layout, or -1.
func (l Layout) ColIndex(ref storage.ColRef) int {
	for i, m := range l.Cols {
		if m.Ref == ref {
			return i
		}
	}
	return -1
}

// Validate checks internal consistency.
func (l Layout) Validate() error {
	if l.KeyCols < 0 || l.KeyCols > len(l.Cols) {
		return fmt.Errorf("hashtable: key cols %d out of range for %d columns", l.KeyCols, len(l.Cols))
	}
	seen := make(map[storage.ColRef]bool, len(l.Cols))
	for _, m := range l.Cols {
		if seen[m.Ref] {
			return fmt.Errorf("hashtable: duplicate column %v in layout", m.Ref)
		}
		seen[m.Ref] = true
		if m.Kind == types.String && l.Dict == nil {
			return fmt.Errorf("hashtable: string column %v in a layout without a dictionary", m.Ref)
		}
	}
	return nil
}

// Table is a chained hash table over fixed-width rows.
type Table struct {
	layout Layout
	nCols  int
	heads  []int32 // chain head per slot (-1 when empty); len is a power of two

	hashes  []uint64 // per-entry full hash
	next    []int32  // per-entry chain link
	payload []uint64 // nCols cells per entry

	// override supplies layout column overrideCol of every entry on a
	// read-only view (WithColumn — the shared-plan qid re-tag);
	// overrideCol is -1 otherwise.
	overrideCol int
	override    []uint64

	resizes int // slot-array relinks (Resizes)
	// frozen marks a published snapshot: every mutation panics. Atomic
	// because concurrent queries may Widen (and hence re-Freeze) the
	// same published snapshot at the same time.
	frozen atomic.Bool

	scratch []uint64 // reusable row buffer for Upsert's insert path

	// Batched-probe statistics, accumulated once per batch by
	// ProbeHashedColumn. Atomic: frozen snapshots are probed by many
	// workers at once.
	probes     atomic.Int64
	probeNodes atomic.Int64
}

// New creates an empty table with the given layout.
func New(layout Layout) *Table {
	if err := layout.Validate(); err != nil {
		panic(err)
	}
	return &Table{
		layout:      layout,
		nCols:       len(layout.Cols),
		heads:       emptyHeads(minSlots),
		overrideCol: -1,
	}
}

func emptyHeads(slots int) []int32 {
	heads := make([]int32, slots)
	for i := range heads {
		heads[i] = -1
	}
	return heads
}

// slotsFor returns the slot count of a table holding n entries: the
// smallest power of two ≥ n, at least minSlots.
func slotsFor(n int) int {
	s := minSlots
	for s < n {
		s *= 2
	}
	return s
}

// Layout returns the table's row layout.
func (t *Table) Layout() Layout { return t.layout }

// Len reports the number of entries; entry indices are [0, Len).
func (t *Table) Len() int { return len(t.hashes) }

// Frozen reports whether the table has been published as an immutable
// snapshot.
func (t *Table) Frozen() bool { return t.frozen.Load() }

// Resizes reports how many times the slot array has been resized (every
// resize relinks all entries).
func (t *Table) Resizes() int { return t.resizes }

// Slots reports the current slot count.
func (t *Table) Slots() int { return len(t.heads) }

// ByteSize estimates the memory footprint of the table: slot array and
// entry arenas (strings are codes of the catalog's dictionary, which
// the table does not own). This is the htSize input of the reuse-aware
// cost model.
func (t *Table) ByteSize() int64 {
	return int64(len(t.heads))*4 +
		int64(len(t.hashes))*8 +
		int64(len(t.next))*4 +
		int64(len(t.payload))*8 +
		int64(len(t.override))*8
}

// Freeze marks the table as a published, immutable snapshot. Every
// later mutation panics; Widen derives mutable copies. Idempotent and
// safe to call concurrently (concurrent wideners of one published
// snapshot all freeze it).
func (t *Table) Freeze() *Table {
	t.frozen.Store(true)
	return t
}

// Widen returns a private, mutable deep copy of the table and freezes
// the source. The arenas copy in bulk, so inserts, upserts and cell
// updates on the copy never touch memory a query probing the source
// can see. headroom is the number of entries the caller expects to
// add (the optimizer's estimate of the missing tuples): the entry
// arenas and the slot array are sized for that many more entries, up
// to the source's own size, so the delta appends without regrowing or
// relinking the copy.
func (t *Table) Widen(headroom int) *Table {
	t.Freeze()
	n := len(t.hashes)
	c := n + min(max(headroom, 0), n)
	w := &Table{
		layout:      t.layout,
		nCols:       t.nCols,
		hashes:      append(make([]uint64, 0, c), t.hashes...),
		next:        append(make([]int32, 0, c), t.next...),
		payload:     append(make([]uint64, 0, c*t.nCols), t.payload...),
		overrideCol: -1,
		resizes:     t.resizes,
	}
	if s := slotsFor(c); s <= len(t.heads) {
		w.heads = slices.Clone(t.heads)
	} else {
		w.relink(s)
	}
	return w
}

// WithColumn returns a frozen read-only view of the table in which
// layout column col of entry e reads vals[e] instead of the stored
// cell (len(vals) == Len()). The view shares the arenas of t, which
// is frozen: a shared plan installs its batch's qid masks
// on a published snapshot this way without copying it or disturbing
// the queries probing it. Probe statistics of the view stay on the
// view.
func (t *Table) WithColumn(col int, vals []uint64) *Table {
	if col < 0 || col >= t.nCols {
		panic(fmt.Sprintf("hashtable: WithColumn column %d out of range", col))
	}
	if len(vals) != t.Len() {
		panic(fmt.Sprintf("hashtable: WithColumn got %d values for %d entries", len(vals), t.Len()))
	}
	t.Freeze()
	v := &Table{
		layout:      t.layout,
		nCols:       t.nCols,
		heads:       t.heads,
		hashes:      t.hashes,
		next:        t.next,
		payload:     t.payload,
		overrideCol: col,
		override:    vals,
		resizes:     t.resizes,
	}
	v.frozen.Store(true)
	return v
}

// HashKey hashes a key (the first KeyCols cells of a row).
func HashKey(key []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, k := range key {
		h = types.HashCombine(h, types.Mix64(k))
	}
	return h
}

// HashColumns computes the hash vector for a whole batch of keys encoded
// column-wise: dst[i] receives the hash of row i's key cells
// (keyCols[0][i], keyCols[1][i], ...). Row i's result is bit-identical
// to HashKey of that row, but the combine loop runs column-at-a-time so
// each key column streams through the cache once.
func HashColumns(dst []uint64, keyCols [][]uint64) {
	for i := range dst {
		dst[i] = 0x9e3779b97f4a7c15
	}
	for _, col := range keyCols {
		for i, c := range col[:len(dst)] {
			dst[i] = types.HashCombine(dst[i], types.Mix64(c))
		}
	}
}

func (t *Table) slot(h uint64) int { return int(h & uint64(len(t.heads)-1)) }

// row returns the payload row of entry e.
func (t *Table) row(e int32) []uint64 {
	off := int(e) * t.nCols
	return t.payload[off : off+t.nCols]
}

func (t *Table) mustMutate(op string) {
	if t.frozen.Load() {
		panic("hashtable: " + op + " on frozen snapshot (Widen first)")
	}
}

// Insert appends a row whose first KeyCols cells form the key. Duplicate
// keys are allowed (join build side). The row slice is copied.
func (t *Table) Insert(row []uint64) {
	if len(row) != t.nCols {
		panic(fmt.Sprintf("hashtable: Insert row has %d cells, layout has %d", len(row), t.nCols))
	}
	t.mustMutate("Insert")
	h := HashKey(row[:t.layout.KeyCols])
	t.insertHashed(h, row)
}

// InsertHashed is Insert with a precomputed key hash (HashColumns over a
// batch); build sinks use it so the insert loop does not re-hash row by
// row. h must equal HashKey of the row's key cells.
func (t *Table) InsertHashed(h uint64, row []uint64) {
	if len(row) != t.nCols {
		panic(fmt.Sprintf("hashtable: InsertHashed row has %d cells, layout has %d", len(row), t.nCols))
	}
	t.mustMutate("InsertHashed")
	t.insertHashed(h, row)
}

func (t *Table) insertHashed(h uint64, row []uint64) {
	idx := int32(len(t.hashes))
	if int(idx) >= len(t.heads) {
		t.relink(2 * len(t.heads))
	}
	s := t.slot(h)
	t.hashes = append(t.hashes, h)
	t.next = append(t.next, t.heads[s])
	t.payload = append(t.payload, row...)
	t.heads[s] = idx
}

// relink replaces the slot array with one of the given power-of-two
// size and relinks every entry in one sequential pass over the hashes.
// Entries link in index order, so each chain lists its entries newest
// first, exactly as inserting them one by one would.
func (t *Table) relink(slots int) {
	heads := emptyHeads(slots)
	mask := uint64(slots - 1)
	for e, h := range t.hashes {
		s := h & mask
		t.next[e] = heads[s]
		heads[s] = int32(e)
	}
	t.heads = heads
	t.resizes++
}

// reserve sizes the table for n entries: the arenas grow and the slot
// array relinks at most once, so the inserts up to n neither regrow
// nor relink.
func (t *Table) reserve(n int) {
	extra := n - len(t.hashes)
	if extra <= 0 {
		return
	}
	t.hashes = slices.Grow(t.hashes, extra)
	t.next = slices.Grow(t.next, extra)
	t.payload = slices.Grow(t.payload, extra*t.nCols)
	if s := slotsFor(n); s > len(t.heads) {
		t.relink(s)
	}
}

// keyEqual compares the key cells of entry e against key.
func (t *Table) keyEqual(e int32, key []uint64) bool {
	row := t.row(e)
	for i, k := range key {
		if row[i] != k {
			return false
		}
	}
	return true
}

// Iterator walks the entries matching one key.
type Iterator struct {
	t    *Table
	cur  int32
	hash uint64
	key  []uint64
}

// Probe returns an iterator over entries whose key equals key.
func (t *Table) Probe(key []uint64) Iterator {
	if len(key) != t.layout.KeyCols {
		panic(fmt.Sprintf("hashtable: Probe key has %d cells, layout key has %d", len(key), t.layout.KeyCols))
	}
	return t.ProbeHashed(HashKey(key), key)
}

// ProbeHashed is Probe with a precomputed key hash (HashColumns over a
// batch): the chain walk uses h directly, so batch-at-a-time probes
// hash a whole batch of keys up front and skip per-row hashing here.
// h must equal HashKey(key). The iterator retains key until exhausted.
func (t *Table) ProbeHashed(h uint64, key []uint64) Iterator {
	return Iterator{t: t, cur: t.heads[t.slot(h)], hash: h, key: key}
}

// Next returns the next matching entry index, or -1 when exhausted.
func (it *Iterator) Next() int32 {
	t := it.t
	for it.cur != -1 {
		e := it.cur
		it.cur = t.next[e]
		if t.hashes[e] == it.hash && t.keyEqual(e, it.key) {
			return e
		}
	}
	return -1
}

// ProbeStats counts batched-probe work (ProbeHashedColumn) against this
// table since it was created. ChainNodes/Probes is the mean probe chain
// length.
type ProbeStats struct {
	// Probes counts key lookups (one per non-missed input row).
	Probes int64
	// ChainNodes counts chain nodes visited across all lookups.
	ChainNodes int64
}

// ProbeStats returns the table's batched-probe counters.
func (t *Table) ProbeStats() ProbeStats {
	return ProbeStats{Probes: t.probes.Load(), ChainNodes: t.probeNodes.Load()}
}

// ProbeHashedColumn probes a whole batch of keys at once — the batched
// counterpart of ProbeHashed. hashes holds the per-row key hashes
// (HashColumns output) and keyCols the encoded key cells column-wise.
// Matches append to rows/ents as (input row, entry) pairs in
// row-major, chain-walk order — identical to iterating ProbeHashed row
// by row — and the grown slices are returned for the caller to adopt.
//
// cur is caller-owned scratch of len(hashes) (storage.Scratch.Cur):
// chain heads for the whole batch resolve in one pass over the slot
// array before any chain is walked (ProbeHeads), so the random slot
// loads stream independently of the chain walks. It is ProbeHeads
// followed by one unbounded ProbeHashedFrom.
func (t *Table) ProbeHashedColumn(cur []int32, hashes []uint64, keyCols [][]uint64, rows, ents []int32) ([]int32, []int32) {
	t.ProbeHeads(cur, hashes)
	rows, ents, _ = t.ProbeHashedFrom(cur, hashes, keyCols, 0, 0, rows, ents)
	return rows, ents
}

// ProbeHeads resolves the chain head of every row's hash into cur, in
// one pass over the slot array: the start of a batched probe.
func (t *Table) ProbeHeads(cur []int32, hashes []uint64) {
	heads := t.heads
	mask := uint64(len(heads) - 1)
	for i, h := range hashes {
		cur[i] = heads[h&mask]
	}
}

// ProbeHashedFrom walks the chains of rows [from, len(hashes)) from
// cur — each row's chain position, its head after ProbeHeads — and
// appends the matches to rows/ents like ProbeHashedColumn. With limit >
// 0 it appends at most limit matches: on finding one more it stops and
// returns that match's row, with cur[row] its entry, so a later call
// from that row continues the walk exactly where this one stopped. It
// returns len(hashes) once every row is walked. Per visited node the
// walk checks the stored hash before the key cells; one atomic fold of
// the probe counters per call keeps the loop allocation- and
// contention-free, and a row counts as one probe when its walk ends.
func (t *Table) ProbeHashedFrom(cur []int32, hashes []uint64, keyCols [][]uint64, from, limit int, rows, ents []int32) ([]int32, []int32, int) {
	n := len(hashes)
	next, stored := t.next, t.hashes
	stop := -1
	if limit > 0 {
		stop = len(ents) + limit
	}
	var probes, nodes int64
	i := from
	for ; i < n; i++ {
		h := hashes[i]
		for e := cur[i]; e != -1; e = next[e] {
			nodes++
			if stored[e] != h {
				continue
			}
			row := t.row(e)
			match := true
			for k, col := range keyCols {
				if row[k] != col[i] {
					match = false
					break
				}
			}
			if match {
				if len(ents) == stop {
					// Resume at this match; its node is visited again.
					cur[i] = e
					t.probes.Add(probes)
					t.probeNodes.Add(nodes - 1)
					return rows, ents, i
				}
				rows = append(rows, int32(i))
				ents = append(ents, e)
			}
		}
		probes++
	}
	t.probes.Add(probes)
	t.probeNodes.Add(nodes)
	return rows, ents, i
}

// Upsert finds the entry with the given key or creates it with the key
// cells set and all other cells zero. It returns the entry index and
// whether the entry already existed.
func (t *Table) Upsert(key []uint64) (entry int32, found bool) {
	if len(key) != t.layout.KeyCols {
		panic(fmt.Sprintf("hashtable: Upsert key has %d cells, layout key has %d", len(key), t.layout.KeyCols))
	}
	return t.UpsertHashed(HashKey(key), key)
}

// UpsertHashed is Upsert with a precomputed key hash (HashColumns over a
// batch). h must equal HashKey(key). The insert path reuses a scratch
// row owned by the table instead of allocating one per new entry
// (insertHashed copies the row into the payload arena).
func (t *Table) UpsertHashed(h uint64, key []uint64) (entry int32, found bool) {
	t.mustMutate("Upsert")
	for cur := t.heads[t.slot(h)]; cur != -1; cur = t.next[cur] {
		if t.hashes[cur] == h && t.keyEqual(cur, key) {
			return cur, true
		}
	}
	if t.scratch == nil {
		t.scratch = make([]uint64, t.nCols)
	}
	row := t.scratch
	copy(row, key)
	for i := len(key); i < t.nCols; i++ {
		row[i] = 0
	}
	t.insertHashed(h, row)
	return int32(len(t.hashes) - 1), false
}

// Cell returns cell col of entry e.
func (t *Table) Cell(e int32, col int) uint64 {
	if col == t.overrideCol {
		return t.override[e]
	}
	return t.payload[int(e)*t.nCols+col]
}

// SetCell stores v into cell col of entry e.
func (t *Table) SetCell(e int32, col int, v uint64) {
	t.mustMutate("SetCell")
	t.payload[int(e)*t.nCols+col] = v
}

// CellValue decodes cell col of entry e as a typed value using the
// layout's kind (strings decode through the layout's dictionary).
func (t *Table) CellValue(e int32, col int) types.Value {
	bits := t.Cell(e, col)
	kind := t.layout.Cols[col].Kind
	if kind == types.String {
		return types.NewString(t.layout.Dict.At(uint32(bits)))
	}
	return types.FromBits(kind, bits)
}

// AppendColumn bulk-decodes cell col of the given entries into a batch
// vector of the layout column's kind, in entry order — the gather step
// of batch-at-a-time probes and hash-table scans. The kind dispatch
// happens once per column per batch instead of once per cell.
func (t *Table) AppendColumn(dst *storage.Vec, col int, entries []int32) {
	if len(entries) == 0 {
		return // an empty table's payload is shorter than col
	}
	if col == t.overrideCol {
		// Override columns are Int64 (qid bitmasks).
		for _, e := range entries {
			dst.Ints = append(dst.Ints, int64(t.override[e]))
		}
		return
	}
	cells, w := t.payload[col:], t.nCols
	switch t.layout.Cols[col].Kind {
	case types.Int64, types.Date:
		for _, e := range entries {
			dst.Ints = append(dst.Ints, int64(cells[int(e)*w]))
		}
	case types.Float64:
		for _, e := range entries {
			dst.Floats = append(dst.Floats, types.FromBits(types.Float64, cells[int(e)*w]).F)
		}
	case types.String:
		dst.UseDict(t.layout.Dict)
		for _, e := range entries {
			dst.Strs = append(dst.Strs, uint32(cells[int(e)*w]))
		}
	}
}

// EncodeValue encodes a typed value into its 8-byte cell representation:
// a string's cell is its code, interned into the layout's dictionary.
// Interning writes the dictionary, so, like every dictionary write, it
// must not run while queries read it.
func (t *Table) EncodeValue(v types.Value) uint64 {
	if v.Kind == types.String {
		return uint64(t.layout.Dict.Intern(v.S))
	}
	return v.Bits()
}

// CheckInvariants validates the table's structure; tests and
// failure-injection hooks call it. It verifies that (1) the slot count
// is a power of two no smaller than the entry count (load ≤ 1), (2) the
// arenas agree on the entry count, and (3) every entry is reachable
// exactly once, from the chain of its own slot hash & (slots-1).
func (t *Table) CheckInvariants() error {
	slots := len(t.heads)
	n := len(t.hashes)
	if slots == 0 || slots&(slots-1) != 0 {
		return fmt.Errorf("hashtable: slot count %d is not a power of two", slots)
	}
	if n > slots {
		return fmt.Errorf("hashtable: %d entries in %d slots (load > 1)", n, slots)
	}
	if len(t.next) != n || len(t.payload) != n*t.nCols {
		return fmt.Errorf("hashtable: arenas hold %d links and %d cells for %d entries", len(t.next), len(t.payload), n)
	}
	seen := make([]bool, n)
	counted := 0
	for s, head := range t.heads {
		for cur := head; cur != -1; cur = t.next[cur] {
			if cur < 0 || int(cur) >= n {
				return fmt.Errorf("hashtable: slot %d chain hits bad entry %d", s, cur)
			}
			if seen[cur] {
				return fmt.Errorf("hashtable: entry %d reachable twice", cur)
			}
			seen[cur] = true
			if t.slot(t.hashes[cur]) != s {
				return fmt.Errorf("hashtable: entry %d chained in slot %d, hashes to %d", cur, s, t.slot(t.hashes[cur]))
			}
			counted++
		}
	}
	if counted != n {
		return fmt.Errorf("hashtable: %d entries reachable, want %d", counted, n)
	}
	return nil
}
