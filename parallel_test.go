package hashstash

import (
	"fmt"
	"sync"
	"testing"
)

// Queries exercising the morsel-driven runner end to end: scan+agg,
// join builds, reuse across overlapping date ranges (the narrower-range
// variants trigger subsuming reuse against cached wider tables, the
// wider ones partial reuse — the widening-by-copy path).
func parallelQueries() []string {
	dates := []string{"1994-01-01", "1995-03-15", "1996-06-01"}
	var qs []string
	for _, d := range dates {
		qs = append(qs, fmt.Sprintf(`
			SELECT c.c_age, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue
			FROM customer c, orders o, lineitem l
			WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
			  AND l.l_shipdate >= DATE '%s'
			GROUP BY c.c_age`, d))
		qs = append(qs, fmt.Sprintf(`
			SELECT l.l_returnflag, COUNT(*) AS n, AVG(l.l_quantity) AS avg_qty
			FROM lineitem l
			WHERE l.l_shipdate >= DATE '%s'
			GROUP BY l.l_returnflag`, d))
	}
	return qs
}

// TestParallelExecMatchesSerial runs the same workload twice — serial
// workers and a 4-worker pool over small morsels — and compares
// canonicalized results query by query.
func TestParallelExecMatchesSerial(t *testing.T) {
	serial := openTPCH(t, WithTuning(Tuning{Parallelism: 1}))
	parallel := openTPCH(t, WithTuning(Tuning{Parallelism: 4, MorselRows: 256}))
	for i, q := range parallelQueries() {
		sres, err := serial.Exec(q)
		if err != nil {
			t.Fatalf("serial query %d: %v", i, err)
		}
		pres, err := parallel.Exec(q)
		if err != nil {
			t.Fatalf("parallel query %d: %v", i, err)
		}
		s, p := canonical(sres), canonical(pres)
		if len(s) != len(p) {
			t.Fatalf("query %d: serial %d rows, parallel %d", i, len(s), len(p))
		}
		for j := range s {
			if s[j] != p[j] {
				t.Fatalf("query %d row %d: serial %q, parallel %q", i, j, s[j], p[j])
			}
		}
		if pres.RowsIn == 0 {
			t.Fatalf("query %d: RowsIn not surfaced", i)
		}
	}
}

// TestConcurrentExecGolden runs many concurrent Exec calls against one
// shared cache and asserts every result matches the serial golden —
// regardless of which reuse mode each execution picked. Run with -race.
func TestConcurrentExecGolden(t *testing.T) {
	queries := parallelQueries()

	// Goldens from a fresh serial engine, one query at a time.
	goldenDB := openTPCH(t, WithTuning(Tuning{Parallelism: 1}))
	goldens := make([][]string, len(queries))
	for i, q := range queries {
		res, err := goldenDB.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		goldens[i] = canonical(res)
	}

	db := openTPCH(t, WithTuning(Tuning{Parallelism: 4, MorselRows: 256}))
	const workers = 8
	const rounds = 6
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (w + r) % len(queries)
				res, err := db.Exec(queries[qi])
				if err != nil {
					errCh <- fmt.Errorf("worker %d query %d: %w", w, qi, err)
					return
				}
				got := canonical(res)
				want := goldens[qi]
				if len(got) != len(want) {
					errCh <- fmt.Errorf("worker %d query %d: %d rows, want %d", w, qi, len(got), len(want))
					return
				}
				for j := range want {
					if got[j] != want[j] {
						errCh <- fmt.Errorf("worker %d query %d row %d: %q != %q", w, qi, j, got[j], want[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if db.CacheStats().Hits == 0 {
		t.Error("concurrent workload never reused a cached table")
	}
}

// TestConcurrentExecUnderGCPressure repeats the concurrent workload
// with a tight cache budget, so the LRU garbage collector races with
// pinning; pinned tables must never be evicted mid-query (evicting one
// would crash or corrupt a probe).
func TestConcurrentExecUnderGCPressure(t *testing.T) {
	queries := parallelQueries()
	db := openTPCH(t, WithTuning(Tuning{Parallelism: 2, MorselRows: 256, CacheBudget: 64 * 1024}))
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				if _, err := db.Exec(queries[(w*3+r)%len(queries)]); err != nil {
					errCh <- err
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
}

// TestConcurrentMaterializedBaseline runs the materialized baseline
// from many goroutines (run with -race): queries pin the
// published snapshots they reuse and rebuild private hash tables from
// them, so baseline traffic executes concurrently and result sets stay
// golden.
func TestConcurrentMaterializedBaseline(t *testing.T) {
	queries := parallelQueries()
	golden := openTPCH(t, WithStrategy(Materialized))
	goldens := make([][]string, len(queries))
	for i, q := range queries {
		res, err := golden.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		goldens[i] = canonical(res)
	}

	db := openTPCH(t, WithStrategy(Materialized))
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				qi := (w + r) % len(queries)
				res, err := db.Exec(queries[qi])
				if err != nil {
					errCh <- fmt.Errorf("worker %d query %d: %w", w, qi, err)
					return
				}
				got := canonical(res)
				if len(got) != len(goldens[qi]) {
					errCh <- fmt.Errorf("worker %d query %d: %d rows, want %d", w, qi, len(got), len(goldens[qi]))
					return
				}
				for j := range got {
					if got[j] != goldens[qi][j] {
						errCh <- fmt.Errorf("worker %d query %d row %d: %q != %q", w, qi, j, got[j], goldens[qi][j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestConcurrentExecBatch mixes batch and single-query traffic over the
// shared cache (batches re-tag reused tables through read-only views,
// so they too run concurrently).
func TestConcurrentExecBatch(t *testing.T) {
	queries := parallelQueries()
	db := openTPCH(t, WithTuning(Tuning{Parallelism: 2, MorselRows: 256}))
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				if _, err := db.ExecBatch(queries[:4]); err != nil {
					errCh <- err
				}
				return
			}
			for r := 0; r < 4; r++ {
				if _, err := db.Exec(queries[r]); err != nil {
					errCh <- err
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
}
