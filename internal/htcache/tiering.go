package htcache

import (
	"cmp"
	"math"
	"slices"

	"hashstash/internal/btree"
	"hashstash/internal/expr"
	"hashstash/internal/faultinject"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Benefit accounting and the tiered lifecycle (hot → cold → evicted).
//
// Every entry carries a decaying benefit accumulator: each reuse hit
// (Pin) adds a bytes-proxy credit plus the optimizer's modeled saving
// versus the fresh alternative, and both decay with a half-life of
// benefitHalfLife clock ticks. Eviction removes the lowest benefit
// *density* (decayed benefit per byte) first; an entry that was
// registered but never reused has zero benefit, which is the admission
// filter — one-shot artifacts can never displace an entry with even a
// single hit.
//
// With a cold budget configured, a benefit victim is demoted instead
// of dropped, in one step: demoteLocked unlists the entry from the hot
// registry, captures the compact spill + bloom filter and swaps the
// entry's snapshot for a spilled placeholder. A victim is unpinned by
// construction, so no query is using it; a query that resolved the
// live snapshot just before the demotion (between Candidates and its
// pin) keeps probing that pointer — Spill leaves the artifact intact —
// and the collector frees it when the query finishes.
//
// Revival is the reverse: the entry rebuilds from its spill outside
// the lock and republishes through its snapshot pointer. The bloom
// filter (built over stable value hashes, not heap ids) lets point/IN
// probes skip revival of artifacts that cannot contain their key.

// Policy selects the eviction victim order.
type Policy uint8

const (
	// PolicyBenefit evicts the lowest benefit density first (default).
	PolicyBenefit Policy = iota
	// PolicyLRU is the seed behavior — evict the least recently used —
	// kept as the ablation baseline (WithLRUEviction). The cold tier is
	// disabled under it.
	PolicyLRU
)

// benefitHalfLife is the decay half-life of the benefit accumulator in
// cache clock ticks (the clock advances on registrations, pins,
// releases and publications — roughly "cache events", not wall time,
// so the decay rate tracks workload activity).
const benefitHalfLife = 64.0

// TieringStats is the benefit-accounting and hot/cold lifecycle slice
// of Stats.
type TieringStats struct {
	Demotions      int64 // hot entries moved to the cold tier
	Spills         int64 // demoted artifacts compacted to spill form
	Revivals       int64 // cold entries returned to the hot tier
	ReviveRebuilds int64 // revivals that had to rebuild from a spill
	ColdEntries    int   // current cold-tier population
	ColdBytes      int64 // its footprint (compact once spilled)

	BloomProbes         int64 // membership tests against cold artifacts
	BloomNegatives      int64 // tests that skipped a revival
	BloomFalsePositives int64 // revivals (or probes) that found nothing

	BenefitEvictions int64 // hot evictions under PolicyBenefit
	LRUEvictions     int64 // hot evictions under the PolicyLRU ablation
	ColdEvictions    int64 // cold-tier drops (budget, invalidation, clear)

	// SavedNS totals the optimizer's modeled savings from every reuse
	// decision (Pin) — the policy-independent "total reuse savings"
	// metric eviction policies are compared on.
	SavedNS float64
}

// SetPolicy selects the eviction policy. Configure once at startup,
// before queries run.
func (c *Cache) SetPolicy(p Policy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.policy = p
}

// SetColdBudget sets the cold tier's byte budget; 0 (the default)
// disables demotion entirely — victims are dropped, preserving the
// seed's budget semantics. Shrinking the budget collects immediately.
func (c *Cache) SetColdBudget(bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.coldBudget = bytes
	c.gcLocked()
}

// decayTo applies the exponential decay accrued since the last credit.
// Caller holds the cache mutex.
func (e *Entry) decayTo(now int64) {
	if now <= e.benefitAt {
		return
	}
	if e.benefit != 0 {
		e.benefit *= math.Exp2(-float64(now-e.benefitAt) / benefitHalfLife)
	}
	e.benefitAt = now
}

// scoreLocked is the eviction score: decayed benefit density. Lower is
// evicted sooner.
func (c *Cache) scoreLocked(e *Entry) float64 {
	e.decayTo(c.clock)
	bytes := e.Bytes
	if bytes < 1 {
		bytes = 1
	}
	score := e.benefit / float64(bytes)
	if e.Hits == 0 {
		// Never reused: benefit is normally zero already; the penalty
		// keeps the admission filter intact even if a future credit
		// source lands before the first hit.
		score *= 0.25
	}
	return score
}

// coldEntry is a demoted entry's cold-tier record: exactly one of
// htSpill/idxSpill holds the compact form.
type coldEntry struct {
	e     *Entry
	bytes int64 // the spill's footprint, as the cold tier accounts it
	at    int   // position in c.coldBy[e.key]

	htSpill  *hashtable.Spill
	idxSpill *btree.Spill
	bloom    *bloomFilter

	// Classification metadata captured at demotion so the optimizer can
	// cost a cold candidate without touching (or reviving) the artifact.
	filter expr.Box
	layout hashtable.Layout
	rows   int
	isIdx  bool
}

// demoteLocked moves a GC victim to the cold tier: unlist it, capture
// classification metadata, bloom filter and compact spill, and install
// the spilled placeholder as the entry's snapshot.
func (c *Cache) demoteLocked(e *Entry) {
	c.demotions++
	if err := faultinject.Inject(faultinject.SpillEncode); err != nil {
		// The artifact could not be encoded: drop it outright.
		c.evict(e)
		c.coldEvict++
		return
	}
	snap := e.cur.Load()
	c.unlistLocked(e)
	c.foldLocked(snap)
	ce := &coldEntry{e: e, filter: snap.Filter}
	switch {
	case snap.HT != nil:
		ce.layout = snap.HT.Layout()
		ce.rows = snap.HT.Len()
		ce.bloom = bloomFromTable(snap.HT)
		ce.htSpill = snap.HT.Spill()
		ce.bytes = ce.htSpill.ByteSize()
	case snap.Idx != nil:
		ce.isIdx = true
		ce.rows = snap.Idx.Len()
		ce.bloom = bloomFromTree(snap.Idx)
		ce.idxSpill = snap.Idx.Spill()
		ce.bytes = ce.idxSpill.ByteSize()
	}
	e.cur.Store(&Snapshot{Filter: snap.Filter, Version: snap.Version + 1, spilled: true})
	e.Bytes = ce.bytes
	c.listColdLocked(ce)
	c.spills++
}

// listColdLocked enters a demoted entry in the cold tier and its
// structural bucket.
func (c *Cache) listColdLocked(ce *coldEntry) {
	c.cold[ce.e.ID] = ce
	c.coldBytes += ce.bytes
	list := c.coldBy[ce.e.key]
	ce.at = len(list)
	c.coldBy[ce.e.key] = append(list, ce)
}

// unlistColdLocked takes an entry out of the cold tier and its bucket
// (swap-removal via coldEntry.at).
func (c *Cache) unlistColdLocked(ce *coldEntry) {
	delete(c.cold, ce.e.ID)
	c.coldBytes -= ce.bytes
	key := ce.e.key
	list := c.coldBy[key]
	last := list[len(list)-1]
	list[ce.at] = last
	last.at = ce.at
	list[len(list)-1] = nil
	if list = list[:len(list)-1]; len(list) > 0 {
		c.coldBy[key] = list
	} else {
		delete(c.coldBy, key)
	}
}

// relistLocked returns a cold entry to the hot registry under the
// given snapshot. Caller updates lifecycle counters.
func (c *Cache) relistLocked(ce *coldEntry, snap *Snapshot) {
	e := ce.e
	c.unlistColdLocked(ce)
	e.Bytes = snap.byteSize()
	c.entries[e.ID] = e
	c.indexLocked(e)
	c.hotBytes += e.Bytes
	if e.Lineage.Kind == SecondaryIndex {
		c.idxBytes += e.Bytes
	}
	e.LastUsed = c.tick()
}

// dropColdLocked removes a cold entry outright (cold-budget pressure,
// invalidation, Clear, Abandon).
func (c *Cache) dropColdLocked(ce *coldEntry) {
	c.unlistColdLocked(ce)
	c.evictions++
	c.evictedB += ce.bytes
	c.coldEvict++
}

// coldVictimLocked picks the cold entry with the lowest benefit
// density (same score as the hot tier; the accumulator keeps decaying
// while cold), or nil if everything cold is pinned.
func (c *Cache) coldVictimLocked() *coldEntry {
	var victim *coldEntry
	var vScore float64
	for _, ce := range c.cold {
		if ce.e.Pins > 0 {
			continue
		}
		s := c.scoreLocked(ce.e)
		if victim == nil || s < vScore || (s == vScore && ce.e.LastUsed < victim.e.LastUsed) {
			victim, vScore = ce, s
		}
	}
	return victim
}

// Revive returns a demoted entry to the hot tier and returns its live
// snapshot, rebuilt from the compact spill outside the lock. col is the
// base column for secondary-index entries (their spill keeps only the sort
// permutation; revival re-gathers the keys) and ignored for hash
// tables. Returns nil if the entry is gone from the cold tier and not
// hot either (evicted meanwhile), or if an index revival lacks its
// column — callers fall back to a fresh build.
func (c *Cache) Revive(e *Entry, col *storage.Column) *Snapshot {
	// Fault point: a failed revival is exactly a nil return — the
	// caller prices and runs the fresh build instead.
	if err := faultinject.Inject(faultinject.HTCacheRevive); err != nil {
		return nil
	}
	c.mu.Lock()
	ce, ok := c.cold[e.ID]
	if !ok {
		var snap *Snapshot
		if _, hot := c.entries[e.ID]; hot {
			snap = e.cur.Load() // a competitor revived it first
		}
		c.mu.Unlock()
		return snap
	}
	htSpill, idxSpill := ce.htSpill, ce.idxSpill
	prev := e.cur.Load()
	c.mu.Unlock()

	var next *Snapshot
	switch {
	case htSpill != nil:
		next = &Snapshot{HT: htSpill.Restore(), Filter: prev.Filter, Version: prev.Version + 1}
	case idxSpill != nil:
		if col == nil {
			return nil
		}
		tree, err := idxSpill.Revive(col)
		if err != nil {
			return nil
		}
		next = &Snapshot{Idx: tree, Filter: prev.Filter, Version: prev.Version + 1}
	default:
		return nil
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.cold[e.ID]; !ok || cur != ce {
		// Lost the race: a competitor revived the entry (use its
		// snapshot) or the cold entry was dropped meanwhile.
		if _, hot := c.entries[e.ID]; hot {
			return e.cur.Load()
		}
		return nil
	}
	e.cur.Store(next)
	c.relistLocked(ce, next)
	c.revivals++
	c.reviveRebuilds++
	c.gcLocked()
	return next
}

// ColdArtifact describes a demoted entry to the optimizer: enough
// metadata to classify and cost revive-vs-rebuild without touching the
// artifact, plus the bloom membership test.
type ColdArtifact struct {
	Entry  *Entry
	Filter expr.Box
	Rows   int
	Bytes  int64
	// Layout is the hash-table column layout (zero value for indexes).
	Layout hashtable.Layout
	// IsIndex marks secondary-index entries.
	IsIndex bool

	bloom *bloomFilter
	c     *Cache
}

// MayContain tests the artifact's bloom filter against a stable value
// hash (StableValueHash / hashtable.StableKeyHashes scheme). False
// proves the key absent — the probe can skip revival entirely. Filters
// are built at demotion; an artifact without one answers true.
func (ca *ColdArtifact) MayContain(h uint64) bool {
	ca.c.bloomProbes.Add(1)
	if ca.bloom == nil {
		return true
	}
	if ca.bloom.mayContain(h) {
		return true
	}
	ca.c.bloomNeg.Add(1)
	return false
}

// NoteFalsePositive records that a bloom-approved probe found nothing
// (the false-positive rate benchmarks track).
func (ca *ColdArtifact) NoteFalsePositive() { ca.c.bloomFP.Add(1) }

// ColdCandidates returns cold-tier entries whose structure matches the
// lineage probe, most recently used first. The cold counterpart of
// Candidates; classification against Filter is the caller's job.
func (c *Cache) ColdCandidates(probe Lineage) []*ColdArtifact {
	key := probe.StructKey()
	c.mu.RLock()
	defer c.mu.RUnlock()
	list := c.coldBy[key]
	out := make([]*ColdArtifact, 0, len(list))
	for _, ce := range list {
		out = append(out, &ColdArtifact{
			Entry:   ce.e,
			Filter:  ce.filter,
			Rows:    ce.rows,
			Bytes:   ce.bytes,
			Layout:  ce.layout,
			IsIndex: ce.isIdx,
			bloom:   ce.bloom,
			c:       c,
		})
	}
	slices.SortFunc(out, func(a, b *ColdArtifact) int { return cmp.Compare(b.Entry.LastUsed, a.Entry.LastUsed) })
	return out
}

// ColdCandidate returns the most recently used cold match, or nil.
func (c *Cache) ColdCandidate(probe Lineage) *ColdArtifact {
	if list := c.ColdCandidates(probe); len(list) > 0 {
		return list[0]
	}
	return nil
}

// StableValueHash hashes a constant the way cold-tier bloom filters
// hash artifact contents: string bytes for strings, stored bits for
// numerics — stable across spill/restore cycles, unlike heap ids.
func StableValueHash(v types.Value) uint64 {
	if v.Kind == types.String {
		return types.HashString(v.S)
	}
	return types.Mix64(v.Bits())
}

// bloomFromTable builds the demotion-time filter over a hash table's
// key contents.
func bloomFromTable(t *hashtable.Table) *bloomFilter {
	b := newBloom(t.Len())
	t.StableKeyHashes(b.add)
	return b
}

// bloomFromTree builds the demotion-time filter over an index's
// distinct values.
func bloomFromTree(t *btree.Tree) *bloomFilter {
	b := newBloom(t.Len())
	t.DistinctHashes(b.add)
	return b
}
