// Package htcache implements the Hash Table Manager (HTM) of HashStash:
// a cache of internal hash tables with lineage and statistics, plus the
// garbage collector of Section 5 of the paper — upgraded from the
// paper's coarse LRU to a benefit-per-byte policy with a tiered
// lifecycle (see tiering.go): entries carry a decaying benefit
// accumulator fed by reuse hits and the optimizer's modeled savings,
// eviction removes the lowest benefit density first, and — when a cold
// budget is configured — victims demote to a compact spill format
// instead of being dropped (an index with a bloom filter over its
// values), revivable for a fraction of a rebuild. The seed LRU policy survives as an
// ablation (PolicyLRU).
//
// The cache is safe for concurrent queries and safe for concurrent
// *widening*: every entry publishes an immutable Snapshot (a frozen
// hash table plus the predicate box describing its content) through an
// atomic pointer. Partial/overlapping reuse widens a snapshot into a
// private copy (hashtable.Table.Widen) and installs it with a
// compare-and-swap (PublishWidened); concurrent probes keep
// draining on the snapshot they resolved at plan time. A query holds
// that one pointer through compile and execution, so Go's garbage
// collector keeps a superseded or demoted version alive exactly as long
// as some query still references it — in-flight probes are never
// invalidated, and no query ever blocks another. Pins (Pin/Release)
// carry what the collector cannot know: an entry being built is not
// evicted and publishes on Release, an entry in use is never a GC
// victim, and the pinned set is the blame list Quarantine uses.
//
// Lineage records are stored base-table-qualified (aliases stripped), so
// a hash table built by one query matches a structurally identical
// sub-plan of any later query regardless of alias choice. The cache
// itself performs only candidate retrieval: by structure, then by the
// shape rule of index.go, which drops entries no reuse case can accept;
// classifying a candidate into the exact/subsuming/partial/overlapping
// reuse cases is predicate algebra and lives with the optimizer.
package htcache

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hashstash/internal/btree"
	"hashstash/internal/expr"
	"hashstash/internal/faultinject"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
)

// Kind labels what materialized a cached artifact.
type Kind uint8

const (
	// JoinBuild is the build side of a hash join (entries are tuples).
	JoinBuild Kind = iota
	// Aggregate is a hash aggregation (entries are groups).
	Aggregate
	// SharedJoinBuild is a join build carrying query-id tags.
	SharedJoinBuild
	// SharedGrouping is the grouping phase of a shared aggregation:
	// entries are individual tuples (not folded aggregates), tagged.
	SharedGrouping
	// SecondaryIndex is an ordered secondary index (btree.Tree) over one
	// base-table column — the second artifact kind the registry recycles,
	// behind the same snapshot/pin machinery as hash tables.
	SecondaryIndex
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case JoinBuild:
		return "join-build"
	case Aggregate:
		return "aggregate"
	case SharedJoinBuild:
		return "shared-join-build"
	case SharedGrouping:
		return "shared-grouping"
	case SecondaryIndex:
		return "secondary-index"
	}
	return "kind(?)"
}

// Lineage describes the plan fragment that produced a hash table, in
// base-qualified form. Together with the predicate box it is the node
// of the paper's recycle graph that refers to a materialized table.
type Lineage struct {
	Kind Kind
	// Tables are the sorted base tables of the fragment's input.
	Tables []string
	// JoinSig canonically encodes the fragment's internal join edges
	// (plan.SubgraphSignature output).
	JoinSig string
	// Filter is the base-qualified predicate box applied to the input
	// at registration time. For cached entries the *current* content
	// description lives in the published Snapshot (widening moves it
	// forward); Lineage.Filter stays at the registration value.
	Filter expr.Box
	// KeyCols are the base-qualified hash key columns, in key order.
	KeyCols []storage.ColRef
	// GroupBy lists base-qualified grouping columns (Aggregate and
	// SharedGrouping kinds); for Aggregate tables it equals KeyCols.
	GroupBy []storage.ColRef
	// Aggs lists the folded aggregates (Aggregate kind only),
	// base-qualified.
	Aggs []expr.AggSpec
	// QidCol is the layout position of the query-id tag column, or -1.
	QidCol int
}

// StructKey returns the structural grouping key: everything that must
// match exactly before predicate classification makes sense.
func (l Lineage) StructKey() string {
	n := len(l.JoinSig) + 8
	for _, r := range l.KeyCols {
		n += len(r.Table) + len(r.Column) + 2
	}
	for _, r := range l.GroupBy {
		n += len(r.Table) + len(r.Column) + 2
	}
	var b strings.Builder
	b.Grow(n) // the key's one allocation
	b.WriteString(strconv.Itoa(int(l.Kind)))
	b.WriteByte('|')
	b.WriteString(l.JoinSig)
	b.WriteByte('|')
	writeRefs(&b, l.KeyCols)
	b.WriteByte('|')
	writeRefs(&b, l.GroupBy)
	return b.String()
}

// writeRefs writes "ref," per column reference (ColRef.String form).
func writeRefs(b *strings.Builder, refs []storage.ColRef) {
	for _, r := range refs {
		if r.Table != "" {
			b.WriteString(r.Table)
			b.WriteByte('.')
		}
		b.WriteString(r.Column)
		b.WriteByte(',')
	}
}

// Snapshot is one immutable published version of a cached table: a
// frozen hash table plus the predicate box describing exactly its
// content. Planners resolve a snapshot once (Entry.Current) and hold it
// for the whole plan/compile/execute pipeline; widening queries derive
// a successor from it and publish with PublishWidened.
type Snapshot struct {
	// Exactly one of HT and Idx is set, selected by the entry's
	// Lineage.Kind (SecondaryIndex entries carry Idx).
	HT  *hashtable.Table
	Idx *btree.Tree
	// Filter is the base-qualified content description of this version.
	Filter expr.Box
	// Version increments per publication (1 = registration).
	Version int64

	// spilled marks the placeholder installed while the entry's artifact
	// lives in the cold tier's compact spill format (HT and Idx are both
	// nil then). A query that resolves one skips the entry; a query that
	// resolved the live snapshot before the demotion keeps probing it.
	spilled bool
}

// Spilled reports whether this snapshot is a cold-tier placeholder with
// no live artifact.
func (s *Snapshot) Spilled() bool { return s.spilled }

// Entry is one cached hash table with usage statistics.
type Entry struct {
	ID      int64
	Lineage Lineage

	// key is Lineage.StructKey(), computed once at registration; slot
	// is where the candidate index holds the entry while it is hot: its
	// shape group and index slot (index.go). Both are guarded by the
	// cache mutex.
	key  string
	slot slot

	// cur is the atomically-published current snapshot.
	cur atomic.Pointer[Snapshot]

	// LastUsed is a logical timestamp maintained by the cache clock.
	LastUsed int64
	// Hits counts reuses (not the initial registration).
	Hits int64
	// Pins counts active users; pinned entries are never GC victims.
	Pins int
	// Bytes is the footprint recorded at registration/publication time.
	Bytes int64

	// benefit is the decaying benefit accumulator (tiering.go): reuse
	// hits add a bytes-proxy credit plus the optimizer's modeled saving
	// versus the fresh alternative (Cache.Pin). benefitAt is
	// the clock tick of the last decay application. Both are guarded by
	// the cache mutex.
	benefit   float64
	benefitAt int64

	// ready marks the table as fully built and published: entries are
	// registered unready (their build pipeline has not run yet) and
	// become candidates only after the building query releases them, so
	// a concurrent query can never plan reuse of a half-built table.
	ready bool

	// quarantined marks a poisoned artifact: a query panicked while
	// holding it pinned (Quarantine), or it was registered under a
	// struck lineage. Quarantined entries never publish — Release drops
	// them instead of making them candidates — and the lineage stays
	// struck until a base table changes (InvalidateTable clears the
	// strike with the artifacts).
	quarantined bool
}

// Ready reports whether the entry has been published (its build
// completed). Unready entries are invisible to Candidates.
func (e *Entry) Ready() bool { return e.ready }

// Current returns the entry's currently published snapshot. The result
// is immutable; callers hold it for as long as they need it.
func (e *Entry) Current() *Snapshot { return e.cur.Load() }

// HT returns the current snapshot's table — a convenience for
// statistics and tests. Planners resolve Current once instead, so one
// query never observes two versions.
func (e *Entry) HT() *hashtable.Table { return e.cur.Load().HT }

// byteSize reports the footprint of whichever artifact the snapshot
// holds.
func (s *Snapshot) byteSize() int64 {
	if s.HT != nil {
		return s.HT.ByteSize()
	}
	if s.Idx != nil {
		return s.Idx.ByteSize()
	}
	return 0
}

// Stats summarizes cache state for experiments and monitoring.
type Stats struct {
	Entries      int
	Bytes        int64
	Hits         int64
	Evictions    int64
	Registered   int64
	EvictedBytes int64
	// HitRatio is hits per registered element (the paper's Figure 7b
	// reports the average reuse count per cached element).
	HitRatio float64

	// Snapshot lifecycle statistics.
	WidenPublished int64 // widened snapshots installed
	WidenLost      int64 // widened snapshots dropped on CAS conflict

	// Batched-probe statistics (hashtable.ProbeStats), cumulative and
	// monotonic: live counters of published snapshots plus an
	// accumulator folded in when a snapshot is superseded
	// (PublishWidened) or its entry demoted or evicted. Probes still in
	// flight on a folded snapshot are not counted — an undercount only
	// the per-layer mean chain length (ProbeChainNodes/Probes) reads.
	Probes          int64
	ProbeChainNodes int64

	// Failure containment: Quarantines counts panic blames laid on
	// cached artifacts (strikes), QuarantinedLineages is the number of
	// currently struck lineages (nothing under them republishes until a
	// base table changes), PressureEvictions counts entries the memory
	// governor shed above its soft watermark. Pinned counts hot and cold
	// entries some query holds pinned — zero at rest; the chaos suite
	// asserts it returns there.
	Quarantines         int64
	QuarantinedLineages int
	PressureEvictions   int64
	Pinned              int

	// Index is the secondary-index slice of the cache's lifecycle.
	Index IndexStats

	// Tiering is the benefit-accounting and hot/cold lifecycle slice
	// (tiering.go).
	Tiering TieringStats
}

// IndexStats summarizes the cached secondary indexes' lifecycle: how
// many were built, how much they were used (live tree counters plus an
// accumulator folded in on eviction, like the probe statistics), and
// how many were dropped by base-table invalidation.
type IndexStats struct {
	Builds        int64 // indexes registered
	RangeProbes   int64 // constraint resolutions against cached trees
	RowsGathered  int64 // row ids materialized through cached trees
	Invalidations int64 // index entries evicted by InvalidateTable
}

// Cache is the hash table cache. All methods are safe for concurrent
// use: a mutex guards the registry, statistics and per-entry
// bookkeeping (pins, recency, lineage) and snapshots publish through
// atomic pointers. The hash tables themselves are never locked —
// published snapshots are frozen, and queries that widen a table build
// a private copy.
type Cache struct {
	// Budget is the memory budget in bytes; 0 means unlimited. Adjust it
	// through SetBudget when other goroutines may be running queries.
	Budget int64

	mu         sync.RWMutex
	entries    map[int64]*Entry
	byStruct   map[string]*bucket // hot entries by structural key, indexed (index.go)
	byKind     map[kindSig][]*bucket
	nextID     int64
	clock      int64
	hits       int64
	evictions  int64
	registered int64
	evictedB   int64
	widenPub   int64
	widenLost  int64

	// Quarantine state: strikes is keyed by Lineage.StructKey; while a
	// lineage is struck, nothing registered under it ever publishes.
	// InvalidateTable clears strikes whose lineage touches the changed
	// table — new base data absolves the shape.
	strikes       map[string]*strikeRec
	quarantines   int64
	pressureEvict int64

	// probeAcc accumulates the probe counters of tables leaving the
	// live set (superseded snapshots, demoted and evicted entries) so
	// Stats stays monotonic across publications.
	probeAcc hashtable.ProbeStats

	// Secondary-index lifecycle counters; idxAcc plays probeAcc's role
	// for evicted trees.
	idxBuilds int64
	idxInval  int64
	idxAcc    btree.Stats

	// Eviction policy and cold tier (tiering.go). hotBytes and idxBytes
	// are running totals over c.entries (all kinds / SecondaryIndex),
	// maintained at register/release/publish/evict/demote/revive so the
	// budget checks never sweep the registry under the lock.
	policy     Policy
	coldBudget int64
	cold       map[int64]*coldEntry
	coldBy     map[string][]*coldEntry // cold entries by structural key
	coldBytes  int64
	hotBytes   int64
	idxBytes   int64

	// Tiering counters. The bloom counters are atomics: membership tests
	// run on the planner's probe path without the cache lock.
	demotions    int64
	spills       int64
	revivals     int64
	benefitEvict int64
	lruEvict     int64
	coldEvict    int64
	savedNS      float64
	bloomProbes  atomic.Int64
	bloomNeg     atomic.Int64
	bloomFP      atomic.Int64
}

// strikeRec is one quarantined lineage: how many panics were blamed on
// artifacts of this shape, and which base tables absolve it.
type strikeRec struct {
	count  int64
	tables []string
}

// New returns an empty cache with the given budget (0 = unlimited).
func New(budget int64) *Cache {
	return &Cache{
		Budget:   budget,
		entries:  make(map[int64]*Entry),
		byStruct: make(map[string]*bucket),
		byKind:   make(map[kindSig][]*bucket),
		cold:     make(map[int64]*coldEntry),
		coldBy:   make(map[string][]*coldEntry),
		strikes:  make(map[string]*strikeRec),
	}
}

// tick advances the logical clock.
func (c *Cache) tick() int64 {
	c.clock++
	return c.clock
}

// Register admits a hash table with its lineage, triggering garbage
// collection if the budget is exceeded. The returned entry is pinned
// until Release — a table being built must not be evicted mid-query —
// and stays invisible to Candidates until then (Release publishes it).
func (c *Cache) Register(ht *hashtable.Table, lin Lineage) *Entry {
	key := lin.StructKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.admitLocked(lin, key, &Snapshot{HT: ht, Filter: lin.Filter, Version: 1}, ht.ByteSize())
	c.gcLocked()
	return e
}

// admitLocked lists a new pinned, unready entry with its first snapshot
// — the half of Register and RegisterIndex common to both kinds.
func (c *Cache) admitLocked(lin Lineage, key string, snap *Snapshot, bytes int64) *Entry {
	e := &Entry{
		ID:       c.nextID,
		Lineage:  lin,
		key:      key,
		LastUsed: c.tick(),
		Pins:     1,
		Bytes:    bytes,
	}
	e.cur.Store(snap)
	c.nextID++
	c.entries[e.ID] = e
	if _, struck := c.strikes[key]; struck {
		// Struck lineage: the build proceeds (the query needs its own
		// table) but the artifact will never publish — Release drops it.
		e.quarantined = true
	}
	c.indexLocked(e)
	c.hotBytes += e.Bytes
	c.registered++
	return e
}

// IndexLineage is the canonical lineage of a secondary index over one
// base column: the structural key is (SecondaryIndex, table, column),
// so every query requesting an index on the same column resolves the
// same cached entry.
func IndexLineage(col storage.ColRef) Lineage {
	return Lineage{
		Kind:    SecondaryIndex,
		Tables:  []string{col.Table},
		JoinSig: col.Table,
		KeyCols: []storage.ColRef{col},
		QidCol:  -1,
	}
}

// RegisterIndex admits a freshly built secondary index under the same
// lifecycle as a hash table build: the entry comes back pinned and
// unready, becomes a reuse candidate only when the building query
// releases it, and is evicted by GC, Abandon or InvalidateTable like
// any other entry.
func (c *Cache) RegisterIndex(tree *btree.Tree, col storage.ColRef) *Entry {
	lin := IndexLineage(col)
	key := lin.StructKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.admitLocked(lin, key, &Snapshot{Idx: tree, Filter: lin.Filter, Version: 1}, tree.ByteSize())
	c.idxBytes += e.Bytes
	c.idxBuilds++
	c.gcLocked()
	return e
}

// IndexBytes reports the live footprint of cached secondary-index
// entries (the build-budget check compares against it on every lazy
// build decision — a running counter, not a registry sweep).
func (c *Cache) IndexBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idxBytes
}

// InvalidateTable drops every unpinned cached artifact whose lineage
// touches the given base table — the base data changed, so indexes and
// hash tables over it describe rows that no longer exist. Callers
// mutate tables only while no queries run (the engine's documented
// contract), so unpinned is the steady state here.
func (c *Cache) InvalidateTable(table string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	// New base data absolves struck lineages over this table: the
	// poisoned artifacts are gone (below, like any stale artifact), and
	// rebuilds from the fresh rows may publish again.
	for key, rec := range c.strikes {
		for _, t := range rec.tables {
			if t == table {
				delete(c.strikes, key)
				break
			}
		}
	}
	dropped := 0
	for _, e := range c.entries {
		if e.Pins > 0 {
			continue
		}
		for _, t := range e.Lineage.Tables {
			if t == table {
				if e.Lineage.Kind == SecondaryIndex {
					c.idxInval++
				}
				c.evict(e)
				dropped++
				break
			}
		}
	}
	// Cold artifacts describe the same stale rows; their spills (a
	// btree spill is just a permutation of the base column) must never
	// be revived over changed data.
	for _, ce := range c.cold {
		if ce.e.Pins > 0 {
			continue
		}
		for _, t := range ce.e.Lineage.Tables {
			if t == table {
				if ce.e.Lineage.Kind == SecondaryIndex {
					c.idxInval++
				}
				c.dropColdLocked(ce)
				dropped++
				break
			}
		}
	}
	return dropped
}

// PublishWidened installs a widened copy of prev as the entry's
// current snapshot. ht is frozen here; filter is the new content
// description (the widened lineage). The install is a compare-and-swap:
// if another query widened the entry first, nothing is published and
// false is returned — the caller's table was still correct for its own
// query, only the cache keeps the competitor's version. The CAS also
// loses when the entry was demoted since prev was resolved (its current
// snapshot is then the spilled placeholder): the widening does not
// relist a cold entry. On success the superseded snapshot's probe
// counters fold into the cache totals (probes still in flight on it go
// uncounted; see Stats.Probes) and the collector frees it once the
// last query holding it finishes. Until then the entry's bytes are held
// twice, once by each version; the budget accounts only the current
// one.
func (c *Cache) PublishWidened(e *Entry, prev *Snapshot, ht *hashtable.Table, filter expr.Box) bool {
	// Fault point: an err-mode injection degrades to the lost-CAS path
	// (benign — the caller's table was correct for its own query, the
	// cache just keeps the predecessor); panic mode unwinds through the
	// publishing query's containment boundary.
	if err := faultinject.Inject(faultinject.HTCachePublish); err != nil {
		c.mu.Lock()
		c.widenLost++
		c.mu.Unlock()
		return false
	}
	ht.Freeze()
	next := &Snapshot{HT: ht, Filter: filter, Version: prev.Version + 1}
	// The swap happens under the lock so the candidate index re-keys the
	// entry atomically with the filter change.
	c.mu.Lock()
	defer c.mu.Unlock()
	if !e.cur.CompareAndSwap(prev, next) {
		c.widenLost++
		return false
	}
	c.widenPub++
	if _, hot := c.entries[e.ID]; hot {
		b := c.byStruct[e.key]
		b.remove(e)
		b.add(e) // re-group and re-key under the widened filter
	}
	c.setEntryBytesLocked(e, ht.ByteSize())
	e.LastUsed = c.tick()
	c.foldLocked(prev)
	c.gcLocked()
	return true
}

// Pin marks an entry in use (reused by a plan), counts the hit and
// credits the entry's benefit accumulator; a pinned entry is never a GC
// victim. savedNS is the optimizer's modeled saving versus the fresh
// alternative — it also feeds the cache's cumulative SavedNS — or 0
// when the caller has no estimate (non-positive and non-finite values
// are ignored).
func (c *Cache) Pin(e *Entry, savedNS float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.Pins++
	e.Hits++
	c.hits++
	e.LastUsed = c.tick()
	// Bytes-proxy benefit credit: one hit contributes one unit of
	// benefit density regardless of size, so with no modeled savings the
	// policy degrades to eviction by decayed hit frequency.
	e.decayTo(c.clock)
	e.benefit += float64(e.Bytes)
	if savedNS > 0 && !math.IsInf(savedNS, 0) {
		e.benefit += savedNS
		c.savedNS += savedNS
	}
}

// Release drops one pin, refreshes the entry's statistics and publishes
// the entry: a freshly registered table becomes a reuse candidate only
// now, when its build pipeline has completed — and is frozen here, so
// everything the cache ever offers for reuse is an immutable snapshot.
func (c *Cache) Release(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.Pins > 0 {
		e.Pins--
	}
	if e.quarantined {
		// Poisoned or struck lineage: never publish. The artifact is
		// dropped the moment its last pin goes (other concurrent users
		// keep probing their resolved snapshot until they release).
		if e.Pins == 0 {
			c.dropLocked(e)
		}
		return
	}
	snap := e.cur.Load()
	if !e.ready {
		if snap.HT != nil {
			snap.HT.Freeze() // trees are born immutable; nothing to freeze
		}
		e.ready = true
	}
	c.setEntryBytesLocked(e, snap.byteSize())
	e.LastUsed = c.tick()
	c.gcLocked()
}

// dropLocked removes the entry from whichever tier lists it.
func (c *Cache) dropLocked(e *Entry) {
	if _, ok := c.entries[e.ID]; ok {
		c.evict(e)
	} else if ce, ok := c.cold[e.ID]; ok {
		c.dropColdLocked(ce)
	}
}

// Quarantine blames an entry for a contained panic: its lineage is
// struck (nothing registered under the same structural key publishes
// until a base table of the lineage changes) and the artifact itself
// is dropped as soon as its last pin releases. Callers invoke it for
// every snapshot a panicking query held pinned — conservative blame:
// the panic fired somewhere inside the query's probe pipelines, and a
// repeatedly-crashing cached table must not take down every query
// that reuses it.
func (c *Cache) Quarantine(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.strikes[e.key]
	if rec == nil {
		rec = &strikeRec{tables: append([]string(nil), e.Lineage.Tables...)}
		c.strikes[e.key] = rec
	}
	rec.count++
	c.quarantines++
	e.quarantined = true
	e.ready = false
	if e.Pins == 0 {
		c.dropLocked(e)
	}
}

// QuarantinedLineages reports how many lineages are currently struck.
func (c *Cache) QuarantinedLineages() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.strikes)
}

// Abandon unpins and removes an entry that its creator no longer wants
// cached — the error path of a failed build, or a compiled plan that
// was discarded before execution. Unlike Evict it succeeds even while
// the caller's own pin is still held.
func (c *Cache) Abandon(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.Pins > 0 {
		e.Pins--
	}
	if e.Pins == 0 {
		c.dropLocked(e)
	}
}

// Touch refreshes recency without counting a reuse.
func (c *Cache) Touch(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.LastUsed = c.tick()
}

// Get returns the entry with the given id, or nil.
func (c *Cache) Get(id int64) *Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.entries[id]
}

// Len reports the number of cached tables.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// TotalBytes reports the hot-tier cache footprint (cold spills are
// accounted separately, against the cold budget).
func (c *Cache) TotalBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hotBytes
}

// FootprintBytes reports the cache's resident memory: hot entries plus
// cold-tier spills. Running counters only — this is the memory
// governor's feed, called on every admission.
func (c *Cache) FootprintBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hotBytes + c.coldBytes
}

// Shed releases at least target bytes of unpinned cache memory if it
// can: cold-tier spills go first (the cheapest loss — compact, already
// demoted), then hot victims in policy order, bypassing demotion (the
// point is to free memory now, not to move it). Returns the bytes
// actually released. The memory governor calls this above its soft
// watermark.
func (c *Cache) Shed(target int64) int64 {
	if target <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	released := int64(0)
	for released < target {
		ce := c.coldVictimLocked()
		if ce == nil {
			break
		}
		released += ce.bytes
		c.dropColdLocked(ce)
		c.pressureEvict++
	}
	for released < target {
		v := c.victimLocked()
		if v == nil {
			break
		}
		released += v.Bytes
		c.evict(v)
		c.pressureEvict++
	}
	return released
}

// setEntryBytesLocked records a new footprint for a hot entry, keeping
// the running per-kind byte counters consistent. Entries outside the
// hot registry keep theirs: a demoted entry's Bytes is its spill's
// footprint (a query that pinned it before the demotion must not
// rewrite that to the placeholder's 0), an evicted one no longer counts.
func (c *Cache) setEntryBytesLocked(e *Entry, bytes int64) {
	if _, ok := c.entries[e.ID]; !ok {
		return
	}
	c.hotBytes += bytes - e.Bytes
	if e.Lineage.Kind == SecondaryIndex {
		c.idxBytes += bytes - e.Bytes
	}
	e.Bytes = bytes
}

// SetBudget adjusts the memory budget and collects immediately.
func (c *Cache) SetBudget(bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Budget = bytes
	c.gcLocked()
}

// GC collects unpinned tables until the cache fits its budget and
// returns the number of entries removed from the cache (demotions to
// the cold tier are not removals). With Budget==0 it never collects.
//
// Victim order is the configured policy's: lowest benefit density
// first (decayed benefit / bytes, ties broken by recency — entries
// that have never been reused carry zero benefit, so one-shot
// artifacts always leave before anything with a hit), or pure LRU
// under the PolicyLRU ablation. With a cold budget configured, benefit
// victims demote to the compact spill tier instead of being dropped.
func (c *Cache) GC() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gcLocked()
}

func (c *Cache) gcLocked() int {
	evicted := 0
	if c.Budget > 0 {
		for c.hotBytes > c.Budget {
			victim := c.victimLocked()
			if victim == nil {
				break // everything pinned; cannot evict further
			}
			if c.policy == PolicyBenefit && c.coldBudget > 0 && victim.ready {
				c.demoteLocked(victim)
				continue
			}
			c.evict(victim)
			if c.policy == PolicyLRU {
				c.lruEvict++
			} else {
				c.benefitEvict++
			}
			evicted++
		}
	}
	for c.coldBytes > c.coldBudget {
		ce := c.coldVictimLocked()
		if ce == nil {
			break
		}
		c.dropColdLocked(ce)
		evicted++
	}
	return evicted
}

// victimLocked picks the next eviction victim under the configured
// policy, or nil when everything is pinned.
func (c *Cache) victimLocked() *Entry {
	var victim *Entry
	var vScore float64
	for _, e := range c.entries {
		if e.Pins > 0 {
			continue
		}
		if c.policy == PolicyLRU {
			if victim == nil || e.LastUsed < victim.LastUsed {
				victim = e
			}
			continue
		}
		s := c.scoreLocked(e)
		if victim == nil || s < vScore || (s == vScore && e.LastUsed < victim.LastUsed) {
			victim, vScore = e, s
		}
	}
	return victim
}

// foldLocked folds a snapshot's access counters into the cumulative
// accumulators as it leaves the live set Stats sums over (superseded,
// demoted or evicted). Queries still probing it keep counting on the
// snapshot itself, which nothing reads any more.
func (c *Cache) foldLocked(s *Snapshot) {
	if s.HT != nil {
		ps := s.HT.ProbeStats()
		c.probeAcc.Probes += ps.Probes
		c.probeAcc.ChainNodes += ps.ChainNodes
	}
	if s.Idx != nil {
		is := s.Idx.Stats()
		c.idxAcc.RangeProbes += is.RangeProbes
		c.idxAcc.RowsGathered += is.RowsGathered
	}
}

func (c *Cache) evict(e *Entry) {
	c.unlistLocked(e)
	c.foldLocked(e.cur.Load())
	c.evictions++
	c.evictedB += e.Bytes
}

// unlistLocked removes the entry from the hot registry (entries map,
// candidate index, byte counters) without touching its artifact —
// shared by eviction and by demotion to the cold tier.
func (c *Cache) unlistLocked(e *Entry) {
	delete(c.entries, e.ID)
	c.hotBytes -= e.Bytes
	if e.Lineage.Kind == SecondaryIndex {
		c.idxBytes -= e.Bytes
	}
	c.unindexLocked(e)
}

// Evict removes a specific entry (used by tests and administrative
// commands); pinned entries are refused.
func (c *Cache) Evict(e *Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.Pins > 0 {
		return fmt.Errorf("htcache: entry %d is pinned", e.ID)
	}
	if _, ok := c.entries[e.ID]; !ok {
		return fmt.Errorf("htcache: entry %d not cached", e.ID)
	}
	c.evict(e)
	return nil
}

// Clear drops every unpinned entry, hot and cold.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.Pins == 0 {
			c.evict(e)
		}
	}
	for _, ce := range c.cold {
		if ce.e.Pins == 0 {
			c.dropColdLocked(ce)
		}
	}
}

// Stats returns a snapshot of cache statistics.
func (c *Cache) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := Stats{
		Entries:             len(c.entries),
		Bytes:               c.hotBytes,
		Hits:                c.hits,
		Evictions:           c.evictions,
		Registered:          c.registered,
		EvictedBytes:        c.evictedB,
		WidenPublished:      c.widenPub,
		WidenLost:           c.widenLost,
		Quarantines:         c.quarantines,
		QuarantinedLineages: len(c.strikes),
		PressureEvictions:   c.pressureEvict,
	}
	s.Probes = c.probeAcc.Probes
	s.ProbeChainNodes = c.probeAcc.ChainNodes
	s.Index.Builds = c.idxBuilds
	s.Index.Invalidations = c.idxInval
	s.Index.RangeProbes = c.idxAcc.RangeProbes
	s.Index.RowsGathered = c.idxAcc.RowsGathered
	s.Tiering = TieringStats{
		Demotions:           c.demotions,
		Spills:              c.spills,
		Revivals:            c.revivals,
		ColdEntries:         len(c.cold),
		ColdBytes:           c.coldBytes,
		BloomProbes:         c.bloomProbes.Load(),
		BloomNegatives:      c.bloomNeg.Load(),
		BloomFalsePositives: c.bloomFP.Load(),
		BenefitEvictions:    c.benefitEvict,
		LRUEvictions:        c.lruEvict,
		ColdEvictions:       c.coldEvict,
		SavedNS:             c.savedNS,
	}
	for _, e := range c.entries {
		if e.Pins > 0 {
			s.Pinned++
		}
		sn := e.cur.Load()
		if sn.HT != nil {
			ps := sn.HT.ProbeStats()
			s.Probes += ps.Probes
			s.ProbeChainNodes += ps.ChainNodes
		}
		if sn.Idx != nil {
			is := sn.Idx.Stats()
			s.Index.RangeProbes += is.RangeProbes
			s.Index.RowsGathered += is.RowsGathered
		}
	}
	for _, ce := range c.cold {
		if ce.e.Pins > 0 {
			s.Pinned++
		}
	}
	if c.registered > 0 {
		s.HitRatio = float64(c.hits) / float64(c.registered)
	}
	return s
}
