package hashtable

import "math/bits"

// Incremental bucket maintenance: the amortized replacement for the
// all-or-nothing compaction clone that used to reset a widened table
// once its shared-segment chain reached maxWidenSegments.
//
// A widened table's probe cost degrades in two ways. Chains point from
// the delta into frozen base segments (every hop pays a segment lookup
// and poor locality), and shadow promotions leave tombstoned nodes that
// every walk visits and skips. Both are bucket-local problems, so they
// get a bucket-local fix: rehashBucket rewrites one bucket's chain into
// the table's own arenas — live base entries are copied forward (and
// their originals tombstoned, exactly like a shadow promotion), dead
// nodes are dropped from the chain, and the links of entries already in
// the own arena are rewritten in place. Afterwards the chain is as
// cheap to walk as a fresh table's, and — since every link is now
// mutable — the bucket regains extendible splitting, which widened
// tables otherwise forfeit.
//
// Maintain sweeps buckets with a resumable cursor under a node budget,
// so the migration cost is paid incrementally across widenings (Widen
// and htcache.PublishWidened both piggy-back a pass) instead of in one
// stop-the-world clone. Maintenance only ever runs on the mutable,
// still-private successor of a copy-on-write widening: concurrent
// readers hold frozen predecessor snapshots (their own references keep
// them alive until their probes drain), and the rebuilt buckets
// become visible atomically when the successor publishes by CAS.
const (
	// DefaultRehashBudget caps chain nodes walked per maintenance pass.
	DefaultRehashBudget = 8192

	// rehashDeadFrac triggers a rehash when at least 1/rehashDeadFrac of
	// a chain's nodes are tombstones.
	rehashDeadFrac = 4

	// compactSegmentCap and compactBloatFactor are the safety valves
	// that still force a full compaction clone under incremental
	// maintenance: a segment chain deeper than compactSegmentCap (probe
	// cost stays logarithmic via segFor's binary search, but every
	// segment pins its arenas), or dead slots outnumbering live entries
	// compactBloatFactor to one (rehash drops tombstones from chains
	// but cannot reclaim their arena slots). Both are far outside the
	// steady state of a maintained table.
	compactSegmentCap  = 4 * maxWidenSegments
	compactBloatFactor = 8
)

// WidenOptions configures the maintenance policy of a copy-on-write
// widening (WidenWith).
type WidenOptions struct {
	// Rehash enables incremental bucket rehash: the successor flattens
	// tombstone- and delta-heavy buckets under Budget instead of
	// compacting wholesale at maxWidenSegments. Off reproduces the
	// pre-maintenance compaction-clone policy (ablation baseline).
	Rehash bool
	// Budget caps chain nodes walked per maintenance pass; <= 0 uses
	// DefaultRehashBudget.
	Budget int
}

// DefaultWidenOptions returns the default policy: incremental rehash
// with the default budget.
func DefaultWidenOptions() WidenOptions { return WidenOptions{Rehash: true} }

// MaintStats counts the bucket-maintenance work a table has performed
// since it was created (htcache folds them into cache-wide statistics
// when the table publishes).
type MaintStats struct {
	// RehashedBuckets counts bucket chains rewritten into own arenas.
	RehashedBuckets int64
	// RewrittenEntries counts live base entries copied forward.
	RewrittenEntries int64
	// ReclaimedTombstones counts dead nodes dropped from chains.
	ReclaimedTombstones int64
	// CompactionsAvoided counts widenings past maxWidenSegments that the
	// old policy would have answered with a full compaction clone.
	CompactionsAvoided int64
	// Compactions counts full compaction clones (the safety valve).
	Compactions int64
}

// MaintStats returns the table's maintenance counters.
func (t *Table) MaintStats() MaintStats { return t.maint }

// widenShouldCompact decides whether WidenWith must fall back to the
// full compaction clone. Without rehash that is the historical segment
// depth bound; with rehash only the safety valves trigger it.
func (t *Table) widenShouldCompact(opts WidenOptions) bool {
	if !opts.Rehash {
		return len(t.segs)+1 > maxWidenSegments
	}
	if len(t.segs)+1 > compactSegmentCap {
		return true
	}
	deadSlots := int(t.nSlots) - t.nEntries
	return deadSlots > 0 && deadSlots > compactBloatFactor*t.nEntries
}

// tombstone marks base slot e dead, allocating the bitmap on first use.
func (t *Table) tombstone(e int32) {
	if t.dead == nil {
		t.dead = make([]uint64, (int(t.segEnd)+63)/64)
	}
	t.dead[e>>6] |= 1 << uint(e&63)
	t.deadCount++
}

// bucketNeedsRehash applies the heat/depth policy: tombstone-heavy
// chains always qualify; mixed chains (delta entries linked into frozen
// segments) qualify once they are long enough for the pointer chase to
// matter; past maxWidenSegments (deep) any tombstone or any mixing at
// all qualifies, so old lineages clean up as the sweep progresses. A
// chain resident in a single frozen segment is deliberately left alone
// even when deep — it walks as cheaply as a fresh chain (one segment
// lookup per node, logarithmic via segFor's binary search, no dead
// detours), and copying it forward every generation would turn the
// amortized policy back into a full clone per widen.
func bucketNeedsRehash(b *bucket, deep bool) bool {
	if b.deadN > 0 && rehashDeadFrac*b.deadN >= b.n {
		return true
	}
	own := b.n - b.frozenN
	if b.frozenN > 0 && own > 0 && b.n >= bucketCap {
		return true
	}
	if deep {
		return b.deadN > 0 || (b.frozenN > 0 && own > 0)
	}
	return false
}

// Maintain runs one incremental maintenance pass: sweep buckets from
// the resumable cursor, rehash those the policy selects, and stop once
// budget chain nodes have been walked (<= 0 uses DefaultRehashBudget).
// Widen and htcache.PublishWidened call it on the private successor of
// a copy-on-write widening; it is also safe to call directly on any
// unfrozen table (a no-op for root tables without tombstones).
func (t *Table) Maintain(budget int) {
	t.mustMutate("Maintain")
	if len(t.segs) == 0 && t.deadCount == 0 {
		return
	}
	if budget <= 0 {
		budget = DefaultRehashBudget
	}
	deep := len(t.segs) >= maxWidenSegments
	nb := int32(len(t.buckets))
	for scanned := int32(0); scanned < nb && budget > 0; scanned++ {
		bi := t.maintPos % nb
		t.maintPos++
		b := &t.buckets[bi]
		if !bucketNeedsRehash(b, deep) {
			continue
		}
		budget -= int(b.n)
		t.rehashBucket(bi)
	}
}

// rehashBucket rewrites bucket bi's chain into the table's own arenas:
// live base-segment entries are copied forward and their originals
// tombstoned (the copy takes the original's place in the chain, so
// probe order is preserved), dead nodes are dropped, and own-arena
// entries are relinked in place without copying. The bucket's stats
// reset to a fresh-table chain: no frozen nodes, no tombstones, and
// splitting re-enabled.
func (t *Table) rehashBucket(bi int32) {
	b := &t.buckets[bi]
	if b.frozenN == 0 && b.deadN == 0 {
		return
	}
	live := t.maintScratch[:0]
	for cur := b.head; cur != -1; cur = t.nextAt(cur) {
		if t.Live(cur) {
			live = append(live, cur)
		}
	}
	t.maintScratch = live[:0]
	// Relink back to front so the rebuilt chain keeps the walk order.
	head := int32(-1)
	rewritten := int64(0)
	for i := len(live) - 1; i >= 0; i-- {
		e := live[i]
		if e >= t.segEnd {
			t.next[e-t.segEnd] = head
			head = e
			continue
		}
		row := t.rowAt(e)
		ne := t.nSlots
		t.hashes = append(t.hashes, t.hashAt(e))
		t.next = append(t.next, head)
		t.payload = append(t.payload, row...)
		if t.overlay != nil {
			t.overlay = append(t.overlay, t.overlay[e])
		}
		t.tombstone(e)
		t.nSlots++
		head = ne
		rewritten++
	}
	b.head = head
	b.n = int32(len(live))
	t.maint.RehashedBuckets++
	t.maint.RewrittenEntries += rewritten
	t.maint.ReclaimedTombstones += int64(b.deadN)
	b.frozenN, b.deadN = 0, 0
}

// ProbeStats counts batched-probe work (ProbeHashedColumn) against this
// table since it was created. ChainNodes/Probes is the mean probe chain
// length — the observable that bucket maintenance flattens.
type ProbeStats struct {
	// Probes counts key lookups (one per non-missed input row).
	Probes int64
	// ChainNodes counts chain nodes visited across all lookups.
	ChainNodes int64
	// TombstoneSkips counts visited nodes rejected as tombstones.
	TombstoneSkips int64
}

// ProbeStats returns the table's batched-probe counters.
func (t *Table) ProbeStats() ProbeStats {
	return ProbeStats{
		Probes:         t.probes.Load(),
		ChainNodes:     t.probeNodes.Load(),
		TombstoneSkips: t.tombSkips.Load(),
	}
}

// ProbeHashedColumn probes a whole batch of keys at once — the batched,
// chain-free-on-the-hot-path counterpart of ProbeHashed. hashes holds
// the per-row key hashes (HashColumns output), keyCols the encoded key
// cells column-wise, and miss (optional) marks rows that cannot match
// (string keys absent from the heap). Matches append to rows/ents as
// (input row, entry) pairs in row-major, chain-walk order — identical
// to iterating ProbeHashed row by row — and the grown slices are
// returned for the caller to adopt.
//
// cur is caller-owned scratch of len(hashes) (storage.Scratch.Cur):
// bucket heads for the whole batch resolve in one pass over the
// directory before any chain is walked, so the random directory and
// bucket-header loads stream independently of the chain walks. Per
// visited node the walk checks the stored hash first and consults the
// tombstone bitmap only on hash-equal nodes of tables that have
// tombstones at all (the hoisted checkDead branch). One atomic fold of
// the probe counters per batch keeps the loop allocation- and
// contention-free.
func (t *Table) ProbeHashedColumn(cur []int32, hashes []uint64, keyCols [][]uint64, miss []bool, rows, ents []int32) ([]int32, []int32) {
	n := len(hashes)
	dir := t.dir
	mask := uint64(len(dir) - 1)
	buckets := t.buckets
	for i := 0; i < n; i++ {
		cur[i] = buckets[dir[hashes[i]&mask]].head
	}
	checkDead := t.deadCount > 0
	var probes, nodes, skips int64
	for i := 0; i < n; i++ {
		if miss != nil && miss[i] {
			continue
		}
		probes++
		h := hashes[i]
		for e := cur[i]; e != -1; e = t.nextAt(e) {
			nodes++
			if t.hashAt(e) != h {
				continue
			}
			if checkDead && !t.Live(e) {
				skips++
				continue
			}
			row := t.rowAt(e)
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
	t.tombSkips.Add(skips)
	return rows, ents
}

// AppendLive appends the live entry indices in [start, end) to dst —
// the bulk tombstone skip of hash-table scans. Tables without
// tombstones fill the range directly; otherwise the dead bitmap is
// consumed word at a time (entries at or past segEnd are always live),
// so a scan over a heavily promoted table skips 64 tombstones per load
// instead of testing each slot.
func (t *Table) AppendLive(dst []int32, start, end int32) []int32 {
	segBound := t.segEnd
	if segBound > end {
		segBound = end
	}
	if t.deadCount == 0 || segBound < start {
		segBound = start
	}
	for e := start; e < segBound; {
		wordStart := e &^ 63
		w := ^t.dead[e>>6] >> uint(e&63) << uint(e&63) // live mask, bits below e cleared
		if rem := segBound - wordStart; rem < 64 {
			w &= (uint64(1) << uint(rem)) - 1
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wordStart+int32(b))
			w &= w - 1
		}
		e = wordStart + 64
	}
	for e := segBound; e < end; e++ {
		dst = append(dst, e)
	}
	return dst
}
