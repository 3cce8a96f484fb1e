// Package hashtable implements the extendible hash table that HashStash
// caches and reuses. It is the data structure a hash join's build phase
// and a hash aggregation materialize at a pipeline breaker.
//
// Design, following Section 3.2 of the paper:
//
//   - Extendible hashing with a power-of-two directory of buckets and
//     per-bucket chains. Growing the table only doubles the directory
//     and splits individual overflowing buckets lazily — entries are
//     never rehashed en masse, which keeps the resize cost (c_resize in
//     the cost model) proportional to the directory, not the data.
//
//   - Entries live in flat, append-only arenas (hash array, chain-link
//     array, one contiguous payload array of fixed-width rows). There is
//     no per-entry allocation: Go's GC never traverses entries, and
//     probes touch memory sequentially per chain. Strings are interned
//     into a StringHeap and stored as 8-byte ids.
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
// table lock-free. Partial and overlapping reuse — the paper's "insert
// the missing tuples into the cached table" — widen a snapshot through
// Widen, which returns a private deep copy: the directory, bucket
// headers and entry arenas are pointer-free and copy in bulk, the
// string heap clones its slice and index. The widening query inserts
// and upserts into the copy in place and the cache publishes it with a
// compare-and-swap; queries still probing the source are untouched, and
// the garbage collector frees the source once the last of them
// finishes. Every table, widened or not, therefore has the same flat
// layout and the same probe cost as a freshly built one.
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

const (
	initialDepth = 3  // directory starts with 8 slots
	maxDepth     = 26 // directory growth cap (64M slots)
	bucketCap    = 8  // average chain length that triggers a split
)

// Layout describes the fixed-width payload row of a hash table.
type Layout struct {
	// Cols lists the payload columns in row order.
	Cols []storage.ColMeta
	// KeyCols is the number of leading columns forming the equality key.
	KeyCols int
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
	}
	return nil
}

type bucket struct {
	head       int32 // first entry index, -1 when empty
	n          int32 // chain length
	localDepth uint8
	// nextSplit is the chain length at which the next split attempt is
	// allowed. It doubles whenever a split fails to separate a chain
	// (identical key hashes cannot be split apart), bounding the work
	// wasted on skewed keys: without it every insert into a stuck
	// bucket would pay an O(chain + directory) split attempt.
	nextSplit int32
}

// Table is an extendible hash table over fixed-width rows.
type Table struct {
	layout  Layout
	nCols   int
	dir     []int32 // directory: bucket index per slot
	buckets []bucket

	hashes  []uint64 // per-entry full hash
	next    []int32  // per-entry chain link
	payload []uint64 // nCols cells per entry

	// override supplies layout column overrideCol of every entry on a
	// read-only view (WithColumn — the shared-plan qid re-tag);
	// overrideCol is -1 otherwise.
	overrideCol int
	override    []uint64

	strs    *StringHeap
	gd      uint8 // global depth: len(dir) == 1<<gd
	resizes int   // directory doublings (cost model statistic)
	splits  int   // bucket splits (cost model statistic)
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
	t := &Table{
		layout:      layout,
		nCols:       len(layout.Cols),
		strs:        NewStringHeap(),
		gd:          initialDepth,
		overrideCol: -1,
	}
	nslots := 1 << initialDepth
	t.dir = make([]int32, nslots)
	t.buckets = make([]bucket, nslots)
	for i := range t.buckets {
		t.dir[i] = int32(i)
		t.buckets[i] = bucket{head: -1, localDepth: initialDepth, nextSplit: bucketCap}
	}
	return t
}

// Layout returns the table's row layout.
func (t *Table) Layout() Layout { return t.layout }

// Len reports the number of entries; entry indices are [0, Len).
func (t *Table) Len() int { return len(t.hashes) }

// Frozen reports whether the table has been published as an immutable
// snapshot.
func (t *Table) Frozen() bool { return t.frozen.Load() }

// Strings returns the table's string heap.
func (t *Table) Strings() *StringHeap { return t.strs }

// Resizes reports how many directory doublings have occurred.
func (t *Table) Resizes() int { return t.resizes }

// Splits reports how many bucket splits have occurred.
func (t *Table) Splits() int { return t.splits }

// DirSize reports the current directory size in slots.
func (t *Table) DirSize() int { return len(t.dir) }

// ByteSize estimates the memory footprint of the table: directory,
// buckets, entry arenas and string heap. This is the htSize input of
// the reuse-aware cost model.
func (t *Table) ByteSize() int64 {
	return int64(len(t.dir))*4 +
		int64(len(t.buckets))*21 +
		int64(len(t.hashes))*8 +
		int64(len(t.next))*4 +
		int64(len(t.payload))*8 +
		int64(len(t.override))*8 +
		t.strs.ByteSize()
}

// Freeze marks the table as a published, immutable snapshot. Every
// later mutation panics; Widen derives mutable copies. Idempotent and
// safe to call concurrently (concurrent wideners of one published
// snapshot all freeze it).
func (t *Table) Freeze() *Table {
	t.frozen.Store(true)
	t.strs.freeze()
	return t
}

// Widen returns a private, mutable deep copy of the table and freezes
// the source. The arenas copy in bulk and the string heap clones, so
// inserts, upserts and cell updates on the copy never touch memory a
// query probing the source can see. headroom is the number of entries
// the caller expects to add (the optimizer's estimate of the missing
// tuples): the entry arenas reserve that much capacity, up to the
// source's own size, so the delta appends without regrowing the copy.
func (t *Table) Widen(headroom int) *Table {
	t.Freeze()
	n := len(t.hashes)
	c := n + min(max(headroom, 0), n)
	return &Table{
		layout:      t.layout,
		nCols:       t.nCols,
		dir:         slices.Clone(t.dir),
		buckets:     slices.Clone(t.buckets),
		hashes:      append(make([]uint64, 0, c), t.hashes...),
		next:        append(make([]int32, 0, c), t.next...),
		payload:     append(make([]uint64, 0, c*t.nCols), t.payload...),
		overrideCol: -1,
		strs:        t.strs.clone(),
		gd:          t.gd,
		resizes:     t.resizes,
		splits:      t.splits,
	}
}

// WithColumn returns a frozen read-only view of the table in which
// layout column col of entry e reads vals[e] instead of the stored
// cell (len(vals) == Len()). The view shares the arenas and string heap
// of t, which is frozen: a shared plan installs its batch's qid masks
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
		dir:         t.dir,
		buckets:     t.buckets,
		hashes:      t.hashes,
		next:        t.next,
		payload:     t.payload,
		overrideCol: col,
		override:    vals,
		strs:        t.strs,
		gd:          t.gd,
		resizes:     t.resizes,
		splits:      t.splits,
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

// globalDepth returns the cached directory depth (len(dir) == 1<<gd);
// it is maintained on every directory doubling instead of being
// recomputed by a loop on every split attempt.
func (t *Table) globalDepth() uint8 { return t.gd }

func (t *Table) slot(h uint64) int32 { return int32(h & uint64(len(t.dir)-1)) }

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
	bi := t.dir[t.slot(h)]
	b := &t.buckets[bi]
	if b.n >= b.nextSplit && t.maybeSplit(bi, h) {
		bi = t.dir[t.slot(h)]
		b = &t.buckets[bi]
	}
	idx := int32(len(t.hashes))
	t.hashes = append(t.hashes, h)
	t.next = append(t.next, b.head)
	t.payload = append(t.payload, row...)
	b.head = idx
	b.n++
}

// maybeSplit splits the bucket holding hash h, doubling the directory if
// needed. It reports whether a split occurred.
func (t *Table) maybeSplit(bi int32, h uint64) bool {
	b := &t.buckets[bi]
	gd := t.globalDepth()
	if b.localDepth == gd {
		if gd >= maxDepth {
			return false
		}
		// Double the directory: each new slot mirrors its low-half twin.
		old := t.dir
		t.dir = make([]int32, len(old)*2)
		copy(t.dir, old)
		copy(t.dir[len(old):], old)
		t.resizes++
		gd++
		t.gd = gd
	}
	// Split bucket bi on bit localDepth: entries whose hash has the bit
	// set move to a fresh bucket.
	oldDepth := b.localDepth
	bit := uint64(1) << oldDepth
	newBi := int32(len(t.buckets))
	t.buckets = append(t.buckets, bucket{head: -1, localDepth: oldDepth + 1, nextSplit: bucketCap})
	b = &t.buckets[bi] // reload: append may have moved the backing array
	b.localDepth = oldDepth + 1
	nb := &t.buckets[newBi]

	// Redistribute the chain.
	cur := b.head
	total := b.n
	b.head, b.n = -1, 0
	for cur != -1 {
		nxt := t.next[cur]
		if t.hashes[cur]&bit != 0 {
			t.next[cur] = nb.head
			nb.head = cur
			nb.n++
		} else {
			t.next[cur] = b.head
			b.head = cur
			b.n++
		}
		cur = nxt
	}
	if b.n == 0 || nb.n == 0 {
		// The chain did not separate (duplicate keys): back off so the
		// next attempt happens only after the chain doubles.
		backoff := 2 * total
		if backoff < bucketCap {
			backoff = bucketCap
		}
		b.nextSplit, nb.nextSplit = backoff, backoff
	} else {
		b.nextSplit, nb.nextSplit = bucketCap, bucketCap
	}
	// Redirect directory slots. All slots mapping to bi share the same
	// low oldDepth bits (the bucket's suffix), so the slots moving to
	// the new bucket are exactly suffix|bit, stepping by 2^(oldDepth+1)
	// — touching len(dir)/2^(oldDepth+1) slots instead of scanning the
	// whole directory (which would make bulk loads quadratic).
	suffix := h & (bit - 1)
	for s := suffix | bit; s < uint64(len(t.dir)); s += bit << 1 {
		t.dir[s] = newBi
	}
	t.splits++
	return true
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
	return Iterator{t: t, cur: t.buckets[t.dir[t.slot(h)]].head, hash: h, key: key}
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
// (HashColumns output), keyCols the encoded key cells column-wise, and
// miss (optional) marks rows that cannot match (string keys absent from
// the heap). Matches append to rows/ents as (input row, entry) pairs in
// row-major, chain-walk order — identical to iterating ProbeHashed row
// by row — and the grown slices are returned for the caller to adopt.
//
// cur is caller-owned scratch of len(hashes) (storage.Scratch.Cur):
// bucket heads for the whole batch resolve in one pass over the
// directory before any chain is walked, so the random directory and
// bucket-header loads stream independently of the chain walks. Per
// visited node the walk checks the stored hash before the key cells.
// One atomic fold of the probe counters per batch keeps the loop
// allocation- and contention-free.
func (t *Table) ProbeHashedColumn(cur []int32, hashes []uint64, keyCols [][]uint64, miss []bool, rows, ents []int32) ([]int32, []int32) {
	n := len(hashes)
	dir := t.dir
	mask := uint64(len(dir) - 1)
	buckets := t.buckets
	for i := 0; i < n; i++ {
		cur[i] = buckets[dir[hashes[i]&mask]].head
	}
	next, stored := t.next, t.hashes
	var probes, nodes int64
	for i := 0; i < n; i++ {
		if miss != nil && miss[i] {
			continue
		}
		probes++
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
				rows = append(rows, int32(i))
				ents = append(ents, e)
			}
		}
	}
	t.probes.Add(probes)
	t.probeNodes.Add(nodes)
	return rows, ents
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
	for cur := t.buckets[t.dir[t.slot(h)]].head; cur != -1; cur = t.next[cur] {
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
// layout's kind (strings resolve through the heap).
func (t *Table) CellValue(e int32, col int) types.Value {
	bits := t.Cell(e, col)
	kind := t.layout.Cols[col].Kind
	if kind == types.String {
		return types.NewString(t.strs.At(bits))
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
		strs := t.strs
		for _, e := range entries {
			dst.Strs = append(dst.Strs, strs.At(cells[int(e)*w]))
		}
	}
}

// EncodeValue encodes a typed value into its 8-byte cell representation,
// interning strings into the table's heap.
func (t *Table) EncodeValue(v types.Value) uint64 {
	if v.Kind == types.String {
		return t.strs.Intern(v.S)
	}
	return v.Bits()
}

// CheckInvariants validates the extendible-hashing structure; tests and
// failure-injection hooks call it. It verifies that (1) every directory
// slot points at a valid bucket whose localDepth ≤ globalDepth, (2) all
// slots sharing a bucket agree on the bucket's depth-masked suffix,
// (3) every entry is reachable from exactly one bucket and hashes to
// it, and (4) the bucket counts match their chains.
func (t *Table) CheckInvariants() error {
	gd := t.globalDepth()
	if 1<<gd != len(t.dir) {
		return fmt.Errorf("hashtable: directory size %d is not a power of two", len(t.dir))
	}
	n := int32(len(t.hashes))
	if len(t.next) != int(n) || len(t.payload) != int(n)*t.nCols {
		return fmt.Errorf("hashtable: arenas hold %d links and %d cells for %d entries", len(t.next), len(t.payload), n)
	}
	for s, bi := range t.dir {
		if bi < 0 || int(bi) >= len(t.buckets) {
			return fmt.Errorf("hashtable: slot %d points at bad bucket %d", s, bi)
		}
		b := t.buckets[bi]
		if b.localDepth > gd {
			return fmt.Errorf("hashtable: bucket %d localDepth %d > globalDepth %d", bi, b.localDepth, gd)
		}
		// The slot's low localDepth bits must match the canonical slot of
		// the bucket (its head entry's hash suffix, when non-empty).
		if b.head != -1 {
			mask := (uint64(1) << b.localDepth) - 1
			if uint64(s)&mask != t.hashes[b.head]&mask {
				return fmt.Errorf("hashtable: slot %d suffix mismatch for bucket %d", s, bi)
			}
		}
	}
	seen := make([]bool, n)
	counted := 0
	for bi, b := range t.buckets {
		mask := (uint64(1) << b.localDepth) - 1
		chain := int32(0)
		for cur := b.head; cur != -1; cur = t.next[cur] {
			if cur < 0 || cur >= n {
				return fmt.Errorf("hashtable: bucket %d chain hits bad entry %d", bi, cur)
			}
			if seen[cur] {
				return fmt.Errorf("hashtable: entry %d reachable twice", cur)
			}
			seen[cur] = true
			if t.hashes[cur]&mask != t.hashes[b.head]&mask {
				return fmt.Errorf("hashtable: bucket %d mixes hash suffixes", bi)
			}
			chain++
		}
		if chain != b.n {
			return fmt.Errorf("hashtable: bucket %d count %d != chain length %d", bi, b.n, chain)
		}
		counted += int(chain)
	}
	if counted != int(n) {
		return fmt.Errorf("hashtable: %d entries reachable, want %d", counted, n)
	}
	return nil
}
