package hashstash

import (
	"fmt"
	"sync"
	"testing"
)

// The widening lifecycle end to end: concurrent queries
// that widen cached tables (partial/overlapping reuse publishing new
// snapshots) racing read-only reuse (probing whichever snapshot their
// plan resolved), with golden serial-vs-concurrent result equivalence.
// Run with -race.

// wideningQueries returns, per round, a query whose date range strictly
// widens round over round — under AlwaysReuse each execution after the
// first widens the cached table of the previous one — plus a narrow
// read-only companion always covered by every cached version.
func wideningQueries() (widening []string, readonly []string) {
	// Widening: successively earlier ship-date lower bounds.
	for _, d := range []string{"1997-01-01", "1996-01-01", "1995-01-01", "1994-01-01", "1993-01-01"} {
		widening = append(widening, fmt.Sprintf(`
			SELECT c.c_age, SUM(l.l_extendedprice) AS revenue
			FROM customer c, orders o, lineitem l
			WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
			  AND l.l_shipdate >= DATE '%s'
			GROUP BY c.c_age`, d))
	}
	// Read-only: subsuming reuse against any of the versions above.
	for _, d := range []string{"1997-06-01", "1998-01-01"} {
		readonly = append(readonly, fmt.Sprintf(`
			SELECT c.c_age, SUM(l.l_extendedprice) AS revenue
			FROM customer c, orders o, lineitem l
			WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
			  AND l.l_shipdate >= DATE '%s'
			GROUP BY c.c_age`, d))
	}
	return widening, readonly
}

// TestConcurrentWideningGolden races widening writers against read-only
// readers on one shared cache and checks every result against a serial
// golden. AlwaysReuse forces the partial/overlapping path whenever a
// candidate exists, so widenings really race each other and the
// readers; the assertions at the end prove snapshots were published.
func TestConcurrentWideningGolden(t *testing.T) {
	widening, readonly := wideningQueries()
	all := append(append([]string{}, widening...), readonly...)

	golden := openTPCH(t, WithTuning(Tuning{Parallelism: 1}))
	goldens := make(map[string][]string, len(all))
	for _, q := range all {
		res, err := golden.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		goldens[q] = canonical(res)
	}

	db := openTPCH(t, WithTuning(Tuning{Parallelism: 4, MorselRows: 256}), WithStrategy(AlwaysReuse))
	// Seed the cache with the narrowest version so round one already
	// has something to widen.
	if _, err := db.Exec(widening[0]); err != nil {
		t.Fatal(err)
	}

	check := func(q string, res *Result) error {
		got, want := canonical(res), goldens[q]
		if len(got) != len(want) {
			return fmt.Errorf("%d rows, want %d", len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				return fmt.Errorf("row %d: %q != %q", j, got[j], want[j])
			}
		}
		return nil
	}

	const writers = 4
	const readers = 4
	const rounds = 5
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := widening[(w+r)%len(widening)]
				res, err := db.Exec(q)
				if err != nil {
					errCh <- fmt.Errorf("writer %d round %d: %w", w, r, err)
					return
				}
				if err := check(q, res); err != nil {
					errCh <- fmt.Errorf("writer %d round %d: %w", w, r, err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := readonly[(w+r)%len(readonly)]
				res, err := db.Exec(q)
				if err != nil {
					errCh <- fmt.Errorf("reader %d round %d: %w", w, r, err)
					return
				}
				if err := check(q, res); err != nil {
					errCh <- fmt.Errorf("reader %d round %d: %w", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	stats := db.CacheStats()
	if stats.Hits == 0 {
		t.Error("workload never reused a cached table")
	}
	if stats.WidenPublished == 0 {
		t.Error("workload never published a widened snapshot")
	}
	// The drained system holds no pins: every query released what it
	// reused, so nothing is shielded from eviction.
	if stats.Pinned != 0 {
		t.Errorf("%d entries still pinned after drain", stats.Pinned)
	}

	// After the dust settles the widest version answers from cache,
	// still golden.
	res, err := db.Exec(widening[len(widening)-1])
	if err != nil {
		t.Fatal(err)
	}
	if err := check(widening[len(widening)-1], res); err != nil {
		t.Fatal(err)
	}
}

// TestWideningSequenceGolden widens one cached table through the whole
// date sequence serially and cross-checks every intermediate against
// the golden engine — the single-threaded correctness spine of the
// widening path (copies, in-place folds, publication order).
func TestWideningSequenceGolden(t *testing.T) {
	widening, _ := wideningQueries()
	golden := openTPCH(t, WithTuning(Tuning{Parallelism: 1}))
	db := openTPCH(t, WithTuning(Tuning{Parallelism: 1}), WithStrategy(AlwaysReuse))
	for i, q := range widening {
		want, err := golden.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Exec(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		w, g := canonical(want), canonical(got)
		if len(w) != len(g) {
			t.Fatalf("query %d: %d rows, want %d", i, len(g), len(w))
		}
		for j := range w {
			if w[j] != g[j] {
				t.Fatalf("query %d row %d: %q != %q", i, j, g[j], w[j])
			}
		}
	}
	if s := db.CacheStats(); s.WidenPublished == 0 {
		t.Errorf("widening sequence published no snapshots: %+v", s)
	}
}
