package htcache

import "fmt"

// CheckInvariants validates the cache's bookkeeping. Tests call it
// after lifecycle transitions and the differential harness after every
// query. It checks that:
//
//   - every hot entry is listed in its structural bucket, in the one
//     shape group matching its current filter and layout, and sits in
//     exactly the index slot its current filter selects; every bucket is
//     reachable by kind, and every cold entry sits in its cold bucket;
//   - the running byte counters equal a sweep of the registry: hot bytes
//     over the hot entries, index bytes over their SecondaryIndex subset,
//     cold bytes over the cold entries;
//   - every published hash table is frozen and structurally sound
//     (hashtable.Table.CheckInvariants).
//
// Safe to call while queries run: published tables are immutable, and
// unready entries (still being built by their query) are not inspected.
func (c *Cache) CheckInvariants() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if err := c.checkIndexLocked(); err != nil {
		return err
	}
	var hot, idx, cold int64
	for _, e := range c.entries {
		hot += e.Bytes
		if e.Lineage.Kind == SecondaryIndex {
			idx += e.Bytes
		}
		if !e.ready {
			continue
		}
		if ht := e.cur.Load().HT; ht != nil {
			if !ht.Frozen() {
				return fmt.Errorf("entry %d publishes a mutable hash table", e.ID)
			}
			if err := ht.CheckInvariants(); err != nil {
				return fmt.Errorf("entry %d: %w", e.ID, err)
			}
		}
	}
	for _, ce := range c.cold {
		cold += ce.bytes
	}
	if hot != c.hotBytes || idx != c.idxBytes || cold != c.coldBytes {
		return fmt.Errorf("byte counters hot/index/cold %d/%d/%d, sweep %d/%d/%d",
			c.hotBytes, c.idxBytes, c.coldBytes, hot, idx, cold)
	}
	return nil
}

// checkIndexLocked verifies the candidate index (index.go) against the
// registry.
func (c *Cache) checkIndexLocked() error {
	n, buckets := 0, 0
	for key, b := range c.byStruct {
		if len(b.groups) == 0 {
			return fmt.Errorf("empty bucket %q kept", key)
		}
		for _, g := range b.groups {
			if err := c.checkGroupLocked(key, b, g); err != nil {
				return err
			}
			n += len(g.all)
		}
		first := b.groups[0].all[0]
		ks := kindSig{first.Lineage.Kind, first.Lineage.JoinSig}
		found := 0
		for _, kb := range c.byKind[ks] {
			if kb == b {
				found++
			}
		}
		if found != 1 {
			return fmt.Errorf("bucket %q listed %d times by kind", key, found)
		}
		buckets++
	}
	if n != len(c.entries) {
		return fmt.Errorf("buckets hold %d entries, registry %d", n, len(c.entries))
	}
	for _, list := range c.byKind {
		buckets -= len(list)
	}
	if buckets != 0 {
		return fmt.Errorf("byKind lists %d buckets more than byStruct", -buckets)
	}
	cold := 0
	for key, list := range c.coldBy {
		for i, ce := range list {
			if c.cold[ce.e.ID] != ce || ce.e.key != key || ce.at != i {
				return fmt.Errorf("coldBy[%q][%d] = entry %d not cold there", key, i, ce.e.ID)
			}
			if _, hot := c.entries[ce.e.ID]; hot {
				return fmt.Errorf("entry %d both hot and cold", ce.e.ID)
			}
			cold++
		}
	}
	if cold != len(c.cold) {
		return fmt.Errorf("coldBy holds %d entries, cold tier %d", cold, len(c.cold))
	}
	return nil
}

// checkGroupLocked verifies one shape group of bucket b: it is not
// empty, each of its entries is registered under the bucket's key, has
// the group's shape and no other group's, and sits in exactly the index
// slot its current filter selects.
func (c *Cache) checkGroupLocked(key string, b *bucket, g *group) error {
	if len(g.all) == 0 {
		return fmt.Errorf("bucket %q: empty shape group kept", key)
	}
	slots := map[*Entry]int{}
	for i, e := range g.residual {
		if e.slot.point || e.slot.at != i {
			return fmt.Errorf("bucket %q: residual[%d] = entry %d with slot %+v", key, i, e.ID, e.slot)
		}
		slots[e]++
	}
	for pt, list := range g.points {
		if len(list) == 0 {
			return fmt.Errorf("bucket %q: empty point list %+v kept", key, pt)
		}
		for i, e := range list {
			if !e.slot.point || e.slot.pt != pt || e.slot.at != i {
				return fmt.Errorf("bucket %q: points[%+v][%d] = entry %d with slot %+v", key, pt, i, e.ID, e.slot)
			}
			slots[e]++
		}
	}
	for i, e := range g.all {
		if c.entries[e.ID] != e || e.key != key || e.slot.grp != g || e.slot.all != i {
			return fmt.Errorf("bucket %q: all[%d] = entry %d (key %q, slot %+v) not registered there", key, i, e.ID, e.key, e.slot)
		}
		if slots[e] != 1 {
			return fmt.Errorf("bucket %q: entry %d sits in %d index slots", key, e.ID, slots[e])
		}
		snap := e.cur.Load()
		f, layout := snap.Filter, storedCols(snap)
		for _, o := range b.groups {
			if fits := o.fits(f, layout); fits != (o == g) {
				return fmt.Errorf("bucket %q: entry %d with filter %v in group %v/%v, fits group %v/%v: %v",
					key, e.ID, f, g.cons, g.stored, o.cons, o.stored, fits)
			}
		}
		var want pointKey
		var point bool
		switch {
		case len(f) == 0 || g.empty:
		case g.anchored:
			if con := g.anchorCon(f); con != nil {
				want, point = constraintPoint(con)
			}
		default:
			for i := range f {
				if _, ok := constraintPoint(&f[i].Con); ok {
					return fmt.Errorf("bucket %q: group is unanchored but entry %d pins %v", key, e.ID, f[i].Col)
				}
			}
		}
		if e.slot.point != point || e.slot.pt != want {
			return fmt.Errorf("bucket %q: entry %d with filter %v in slot %+v, want point=%v %+v", key, e.ID, f, e.slot, point, want)
		}
	}
	if len(slots) != len(g.all) {
		return fmt.Errorf("bucket %q: group indexes %d entries, lists %d", key, len(slots), len(g.all))
	}
	return nil
}
