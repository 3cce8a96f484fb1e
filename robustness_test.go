package hashstash

import (
	"errors"
	"testing"

	"hashstash/hashstasherr"
	"hashstash/internal/faultinject"
	"hashstash/internal/types"
)

// TestQuarantineAfterPanic walks the full quarantine lifecycle: a
// query that panics while probing cached hash tables strikes their
// lineages, the struck lineage is never republished, and a base-table
// change absolves the strike.
func TestQuarantineAfterPanic(t *testing.T) {
	db := openTPCH(t)
	const sql = `
		SELECT c.c_age, SUM(o.o_totalprice) AS total
		FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey
		GROUP BY c.c_age`

	// Warm run publishes the build-side hash table.
	want, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if db.CacheStats().Registered == 0 {
		t.Fatal("warm run cached nothing; the quarantine path has nothing to blame")
	}

	// Second run reuses the cached table and panics mid-probe. The
	// recover boundary must convert it to ErrInternal and lay a strike
	// on every pinned artifact.
	if err := faultinject.Arm("exec.morsel=panic:once"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()
	if _, err := db.Exec(sql); !errors.Is(err, hashstasherr.ErrInternal) {
		t.Fatalf("panicking reuse run = %v, want ErrInternal", err)
	}
	faultinject.Disarm()

	st := db.CacheStats()
	if st.Quarantines == 0 {
		t.Fatal("contained panic laid no quarantine blame")
	}
	struck := st.QuarantinedLineages
	if struck == 0 {
		t.Fatal("no lineage struck after contained panic")
	}

	// Third run: correct answers without the poisoned artifact, and the
	// struck lineage must not sneak back into the cache.
	got, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("post-quarantine run: %v", err)
	}
	cg, cw := canonical(got), canonical(want)
	if len(cg) != len(cw) {
		t.Fatalf("post-quarantine rows = %d, want %d", len(cg), len(cw))
	}
	for i := range cg {
		if cg[i] != cw[i] {
			t.Fatalf("post-quarantine row %d: %s vs %s", i, cg[i], cw[i])
		}
	}
	if now := db.CacheStats().QuarantinedLineages; now != struck {
		t.Fatalf("struck lineages changed %d -> %d without a base-table change", struck, now)
	}

	// A base-table change absolves the strike: the old artifact was
	// invalid anyway, so the lineage gets a clean slate.
	if err := db.InsertRows("customer", [][]Value{{
		types.NewInt(999001), types.NewString("Customer#absolve"),
		types.NewInt(33), types.NewString("BUILDING"),
		types.NewInt(7), types.NewFloat(123.45),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("orders", [][]Value{{
		types.NewInt(999001), types.NewInt(999001), types.NewDate(9500),
		types.NewFloat(1000.0), types.NewInt(0), types.NewString("O"),
	}}); err != nil {
		t.Fatal(err)
	}
	if now := db.CacheStats().QuarantinedLineages; now != 0 {
		t.Fatalf("%d lineages still struck after base-table change", now)
	}
	if _, err := db.Exec(sql); err != nil {
		t.Fatalf("run after absolution: %v", err)
	}
}

// TestCompilePanicUnwindsPins: a panic inside compilation (here an
// injected revival fault) must unwind what the compile already pinned
// and registered. Otherwise the fresh registration stays pinned and
// unready forever — never published, never evictable, surviving
// ClearCache.
func TestCompilePanicUnwindsPins(t *testing.T) {
	db := openTPCH(t, WithTuning(Tuning{ColdTierBudget: 1 << 30}))
	const ordersBuild = `
		SELECT o.o_custkey, l.l_extendedprice FROM orders o, lineitem l
		WHERE o.o_orderkey = l.l_orderkey
		  AND o.o_orderdate >= DATE '1995-01-01' AND l.l_shipdate >= DATE '1995-06-01'`
	// The root join registers a fresh customer build before its probe
	// side revives the cold orders build.
	const threeWay = `
		SELECT c.c_age, l.l_extendedprice FROM customer c, orders o, lineitem l
		WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
		  AND o.o_orderdate >= DATE '1995-01-01' AND l.l_shipdate >= DATE '1995-06-01'`

	if _, err := db.Exec(ordersBuild); err != nil {
		t.Fatal(err)
	}
	db.SetCacheBudget(1) // demote the orders build to the cold tier
	db.SetCacheBudget(0)
	if st := db.CacheStats(); st.Entries != 0 || st.Tiering.ColdEntries != 1 {
		t.Fatalf("setup: %d hot, %d cold entries; want 0 and 1", st.Entries, st.Tiering.ColdEntries)
	}

	if err := faultinject.Arm("htcache.revive=panic:once"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()
	if _, err := db.Exec(threeWay); !errors.Is(err, hashstasherr.ErrInternal) {
		t.Fatalf("panicking revival = %v, want ErrInternal", err)
	}
	if faultinject.Fired(faultinject.HTCacheRevive) != 1 {
		t.Fatal("the revival fault never fired")
	}
	faultinject.Disarm()

	if p := db.CacheStats().Pinned; p != 0 {
		t.Errorf("%d entries still pinned after the contained panic", p)
	}
	db.ClearCache()
	if st := db.CacheStats(); st.Entries != 0 || st.Tiering.ColdEntries != 0 {
		t.Fatalf("ClearCache left %d hot and %d cold entries", st.Entries, st.Tiering.ColdEntries)
	}
	if _, err := db.Exec(threeWay); err != nil {
		t.Fatalf("run after the contained panic: %v", err)
	}
}

// govStub is an unsheddable memory source for forcing governor levels.
type govStub struct{ fp int64 }

func (s *govStub) FootprintBytes() int64 { return s.fp }
func (s *govStub) Shed(int64) int64      { return 0 }

// TestMemGovIndexBuildVeto: under Soft memory pressure the governor
// vetoes speculative index builds — the ski-rental accumulator can
// wait, new memory cannot — and the veto lifts with the pressure.
func TestMemGovIndexBuildVeto(t *testing.T) {
	db := Open(WithTuning(Tuning{SoftMemoryLimit: 1000, HardMemoryLimit: 1 << 50}))
	if err := db.LoadTPCH(0.002); err != nil {
		t.Fatal(err)
	}
	gov := db.MemoryGovernor()
	if gov == nil {
		t.Fatal("Tuning memory limits did not create a governor")
	}
	src := &govStub{fp: 5000}
	gov.AddSource(src)
	gov.Refresh()
	if gov.Level().String() != "soft" {
		t.Fatalf("governor level = %s, want soft", gov.Level())
	}

	sql := rangeShapes[0]
	for i := 0; i < 64; i++ {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if builds := db.CacheStats().Index.Builds; builds != 0 {
		t.Fatalf("%d index builds under Soft pressure, want 0", builds)
	}
	if gov.Stats().VetoedBuilds == 0 {
		t.Fatal("governor recorded no vetoed builds")
	}

	// Pressure released: the accumulator has long since paid for the
	// build, so the next runs build promptly.
	src.fp = 0
	gov.Refresh()
	if gov.Level().String() != "ok" {
		t.Fatalf("governor level after release = %s, want ok", gov.Level())
	}
	warmIndex(t, db, sql)
}
