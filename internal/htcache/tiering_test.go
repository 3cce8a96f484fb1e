package htcache

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"hashstash/internal/expr"
	"hashstash/internal/types"
)

// TestBenefitEvictionAdmissionFilter: a never-reused entry has zero
// benefit and is evicted before an older entry with a single hit — the
// opposite of the LRU victim order.
func TestBenefitEvictionAdmissionFilter(t *testing.T) {
	c := New(0)
	e1 := c.Register(makeHT(1000), lin(100))
	c.Release(e1)
	c.Pin(e1, 0) // one reuse hit: benefit = bytes proxy
	c.Release(e1)
	e2 := c.Register(makeHT(1000), lin(200)) // one-shot, more recent
	c.Release(e2)

	c.Budget = c.TotalBytes() - 1
	if n := c.GC(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if c.Get(e2.ID) != nil {
		t.Error("zero-benefit one-shot survived")
	}
	if c.Get(e1.ID) == nil {
		t.Error("reused entry evicted despite being older")
	}
	if s := c.Stats(); s.Tiering.BenefitEvictions != 1 || s.Tiering.LRUEvictions != 0 {
		t.Errorf("tiering stats = %+v", s.Tiering)
	}
}

// TestLRUPolicyAblation: under PolicyLRU the same setup evicts the
// least recently used entry regardless of benefit.
func TestLRUPolicyAblation(t *testing.T) {
	c := New(0)
	c.SetPolicy(PolicyLRU)
	e1 := c.Register(makeHT(1000), lin(100))
	c.Release(e1)
	c.Pin(e1, 0)
	c.Release(e1)
	e2 := c.Register(makeHT(1000), lin(200))
	c.Release(e2)
	c.Touch(e2)

	c.Budget = c.TotalBytes() - 1
	c.GC()
	if c.Get(e1.ID) != nil {
		t.Error("LRU entry survived under PolicyLRU")
	}
	if s := c.Stats(); s.Tiering.LRUEvictions != 1 || s.Tiering.Demotions != 0 {
		t.Errorf("tiering stats = %+v", s.Tiering)
	}
}

// TestCreditAccumulatesSavedNS: a reuse pin credits the optimizer's
// modeled saving to the cache total; non-positive and non-finite
// savings are ignored.
func TestCreditAccumulatesSavedNS(t *testing.T) {
	c := New(0)
	e := c.Register(makeHT(10), lin(100))
	c.Release(e)
	for _, saved := range []float64{1e6, -5, 0, math.NaN(), math.Inf(1)} {
		c.Pin(e, saved)
		c.Release(e)
	}
	if s := c.Stats(); s.Tiering.SavedNS != 1e6 || s.Hits != 5 {
		t.Errorf("SavedNS = %v, hits = %d; want 1e6 and 5", s.Tiering.SavedNS, s.Hits)
	}
}

// TestDemoteSpillsAtOnce walks the one-step demotion: a GC victim is
// unpinned by construction, so it leaves the hot registry already in
// compact spill form, and revival rebuilds it from the spill.
func TestDemoteSpillsAtOnce(t *testing.T) {
	c := New(0)
	c.SetColdBudget(1 << 30)

	e1 := c.Register(makeHT(1000), lin(100))
	c.Release(e1)
	e2 := c.Register(makeHT(1000), lin(200))
	c.Release(e2)
	c.Pin(e2, 0) // e2 gains benefit; e1 is the victim
	c.Release(e2)

	c.Budget = c.TotalBytes() - 1
	if n := c.GC(); n != 0 {
		t.Fatalf("demotion counted as eviction: %d", n)
	}
	if c.Get(e1.ID) != nil {
		t.Fatal("demoted entry still listed hot")
	}
	ca := c.ColdCandidate(lin(0))
	if ca == nil || ca.Entry != e1 || ca.Rows != 1000 {
		t.Fatalf("cold candidate = %+v", ca)
	}
	if snap := e1.Current(); !snap.Spilled() || snap.HT != nil {
		t.Fatal("demoted artifact not spilled")
	}
	s := c.Stats()
	if s.Tiering.Demotions != 1 || s.Tiering.Spills != 1 || s.Tiering.ColdEntries != 1 {
		t.Fatalf("tiering stats = %+v", s.Tiering)
	}
	if s.Tiering.ColdBytes >= e2.Bytes || e1.Bytes != s.Tiering.ColdBytes {
		t.Errorf("spilled footprint %d not compact (hot peer is %d, entry says %d)", s.Tiering.ColdBytes, e2.Bytes, e1.Bytes)
	}

	// Revival rebuilds from the spill and republishes. Relax the budget
	// first or the post-revival GC would immediately demote again.
	c.SetBudget(0)
	snap := c.Revive(e1, nil)
	if snap == nil || snap.HT == nil || snap.Spilled() {
		t.Fatal("revive failed")
	}
	if snap.HT.Len() != 1000 {
		t.Fatalf("revived table has %d rows, want 1000", snap.HT.Len())
	}
	if c.Get(e1.ID) == nil {
		t.Fatal("revived entry not relisted")
	}
	s = c.Stats()
	if s.Tiering.Revivals != 1 || s.Tiering.ReviveRebuilds != 1 || s.Tiering.ColdEntries != 0 {
		t.Fatalf("tiering stats = %+v", s.Tiering)
	}
}

// TestBloomMembership: present keys always pass; absent keys are
// rejected at roughly the configured false-positive rate — and a
// rejection is exactly the signal that makes revival skippable.
func TestBloomMembership(t *testing.T) {
	c := New(0)
	c.SetColdBudget(1 << 30)
	e1 := c.Register(makeHT(1000), lin(100)) // keys 0..999
	c.Release(e1)
	e2 := c.Register(makeHT(1000), lin(200))
	c.Release(e2)
	c.Pin(e2, 0)
	c.Release(e2)
	c.Budget = c.TotalBytes() - 1
	c.GC()

	ca := c.ColdCandidate(lin(0))
	if ca == nil {
		t.Fatal("no cold candidate after demotion")
	}
	for k := int64(0); k < 1000; k += 97 {
		if !ca.MayContain(StableValueHash(types.NewInt(k))) {
			t.Fatalf("present key %d rejected", k)
		}
	}
	fp := 0
	const absentProbes = 2000
	for k := int64(10_000); k < 10_000+absentProbes; k++ {
		if ca.MayContain(StableValueHash(types.NewInt(k))) {
			fp++
		}
	}
	if fp > absentProbes/20 { // 10 bits/key targets ~1%; allow 5%
		t.Fatalf("%d/%d false positives", fp, absentProbes)
	}
	s := c.Stats()
	if s.Tiering.BloomProbes == 0 || s.Tiering.BloomNegatives == 0 {
		t.Fatalf("bloom counters not recorded: %+v", s.Tiering)
	}
}

// TestByteCountersConsistent: the O(1) running counters must equal a
// full sweep after every lifecycle transition.
func TestByteCountersConsistent(t *testing.T) {
	c := New(0)
	c.SetColdBudget(1 << 30)
	check := func(stage string) {
		t.Helper()
		var sum int64
		for _, e := range c.Candidates(lin(0)) {
			sum += e.Bytes
		}
		if got := c.TotalBytes(); got != sum {
			t.Fatalf("%s: TotalBytes=%d, sweep=%d", stage, got, sum)
		}
	}
	var entries []*Entry
	for i := 0; i < 4; i++ {
		e := c.Register(makeHT(200*(i+1)), lin(int64(i)))
		c.Release(e)
		entries = append(entries, e)
	}
	check("registered")
	c.Pin(entries[3], 0)
	c.Release(entries[3])
	c.SetBudget(c.TotalBytes() - 1)
	check("demoted")
	c.SetBudget(0) // relax before reviving or GC re-demotes
	for _, e := range entries {
		c.Revive(e, nil)
	}
	check("revived")
	if err := c.Evict(entries[1]); err != nil {
		t.Fatal(err)
	}
	check("evicted")
	c.Clear()
	check("cleared")
	if c.TotalBytes() != 0 {
		t.Fatalf("TotalBytes=%d after clear", c.TotalBytes())
	}
}

// TestLifecycleStorm hammers the hot/cold lifecycle from many
// goroutines under -race: a snapshot a reader resolved through
// Candidates is either the spilled placeholder (the entry was demoted
// first; the reader skips it) or keeps a live table that answers its
// probes, whatever demotions, revivals, budget flips and invalidations
// run concurrently after the resolution.
func TestLifecycleStorm(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			stormOnce(t)
		})
	}
}

func stormOnce(t *testing.T) {
	c := New(0)
	c.SetColdBudget(1 << 30)

	const iters = 400
	var wg sync.WaitGroup

	// Readers: the invariant under test.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, cand := range c.Candidates(lin(0)) {
					snap := cand.Current()
					if snap == nil {
						t.Error("candidate with nil snapshot")
						continue
					}
					if snap.Spilled() {
						continue // demoted since Candidates listed it
					}
					if snap.HT == nil {
						t.Error("live snapshot without a table")
						continue
					}
					if i%3 == g {
						c.Pin(cand, 100)
					}
					runtime.Gosched() // let demotions and spills land
					// Every table in this storm holds keys 0..19.
					for k := uint64(0); k < 20; k++ {
						if it := snap.HT.Probe([]uint64{k}); it.Next() == -1 {
							t.Errorf("resolved snapshot v%d lost key %d", snap.Version, k)
						}
					}
					if i%3 == g {
						c.Release(cand)
					}
				}
			}
		}(g)
	}

	// Registrar: replenishes the hot tier, every other entry pinned to a
	// partition key so the candidate index holds point slots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			l := lin(int64(i))
			if i%2 == 0 {
				l.Filter = expr.NewBox(append(l.Filter, custPoint(int64(i%8)))...)
			}
			e := c.Register(makeHT(50+i%200), l)
			c.Release(e)
		}
	}()

	// Widener: re-keys point entries under ranges while point lookups
	// run, and checks the index invariants as it goes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			probe := lin(0)
			probe.Filter = expr.NewBox(append(probe.Filter, custPoint(int64(i%8)))...)
			for _, cand := range c.Candidates(probe) {
				prev := cand.Current()
				if prev.HT == nil {
					continue
				}
				wider := expr.NewBox(append(lin(0).Filter, custRange(int64(i%8), int64(i%8+2)))...)
				c.PublishWidened(cand, prev, makeHT(20), wider)
				break
			}
			if err := checkRegistry(c); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Demoter: flips the budget to force demotions and spills.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			c.SetBudget(4096)
			c.SetBudget(0)
		}
	}()

	// Reviver: pulls cold entries back, guarded by a bloom probe the
	// way the optimizer is — a negative must never revive.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			for _, ca := range c.ColdCandidates(lin(0)) {
				if ca.IsIndex {
					continue
				}
				if !ca.MayContain(StableValueHash(types.NewInt(int64(i % 250)))) {
					continue // bloom negative: skip revival
				}
				c.Revive(ca.Entry, nil)
			}
		}
	}()

	// Invalidator: periodically wipes artifacts over the base table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			c.InvalidateTable("orders")
		}
	}()

	wg.Wait()

	// Post-storm sanity: every hot entry in exactly one index slot,
	// counters non-negative and consistent.
	if err := checkRegistry(c); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Tiering.ColdBytes < 0 || s.Bytes < 0 {
		t.Fatalf("negative byte counters: %+v", s)
	}
	if s.Tiering.Revivals < s.Tiering.ReviveRebuilds {
		t.Fatalf("rebuilds exceed revivals: %+v", s.Tiering)
	}
}
