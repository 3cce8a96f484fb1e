package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hashstash"
	"hashstash/hashstasherr"
	"hashstash/internal/memgov"
	"hashstash/internal/testutil"
)

// stubSource is a memory source with a settable footprint that sheds
// down to a settable floor, for forcing governor levels in tests.
type stubSource struct{ fp, floor atomic.Int64 }

func (s *stubSource) FootprintBytes() int64 { return s.fp.Load() }

func (s *stubSource) Shed(n int64) int64 {
	freed := min(n, s.fp.Load()-s.floor.Load())
	if freed <= 0 {
		return 0
	}
	s.fp.Add(-freed)
	return freed
}

// TestLineHalfOpenClient: a client that connects and then stops
// sending is reaped by the read deadline instead of pinning its
// handler goroutine forever.
func TestLineHalfOpenClient(t *testing.T) {
	testutil.CheckGoroutines(t)
	db := openTPCH(t)
	srv := New(db, Config{ReadTimeout: 150 * time.Millisecond})
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srv.ServeLine(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("HELLO t1\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := conn.Read(buf); err != nil {
		t.Fatalf("greeting read: %v", err)
	}

	// Half-open: a partial statement with no newline, then silence. The
	// server must close the connection once the read deadline passes.
	if _, err := conn.Write([]byte("SELECT c_age FROM")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept a half-open connection alive past its read deadline")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never closed the half-open connection (client read timed out)")
	}
}

// TestServerShutdownDuringStorm: Shutdown under concurrent load drains
// cleanly — every in-flight query either completes or fails with the
// retriable shutdown error, Stats/healthz never race the drain, and no
// goroutines leak.
func TestServerShutdownDuringStorm(t *testing.T) {
	testutil.CheckGoroutines(t)
	db := openTPCH(t)
	srv := New(db, Config{DefaultTimeout: 30 * time.Second})

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 32
	var wg sync.WaitGroup
	var completed, rejected, failed atomic.Int64
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for j := 0; j < 8; j++ {
				_, _, err := srv.Execute(context.Background(), fmt.Sprintf("t%d", i%4), similarSQL(i+j))
				switch {
				case err == nil:
					completed.Add(1)
				case hashstasherr.IsRetriable(err):
					rejected.Add(1)
				default:
					failed.Add(1)
					t.Errorf("storm query failed non-retriably: %v", err)
				}
			}
		}(i)
	}
	// Observers hammer the read-only surfaces throughout the drain.
	obsDone := make(chan struct{})
	go func() {
		defer close(obsDone)
		for {
			select {
			case <-time.After(2 * time.Millisecond):
				_ = srv.Stats()
				resp, err := http.Get(ts.URL + "/healthz")
				if err == nil {
					resp.Body.Close()
				}
			case <-start:
				return
			}
		}
	}()
	close(start)
	<-obsDone

	time.Sleep(30 * time.Millisecond) // let the storm build
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown did not drain: %v", err)
	}
	wg.Wait()

	if completed.Load() == 0 {
		t.Fatal("no storm query completed before the drain")
	}
	if failed.Load() != 0 {
		t.Fatalf("%d queries failed non-retriably during shutdown", failed.Load())
	}
	// Post-shutdown: admission refuses retriably, health reports
	// draining, stats stay serveable.
	_, _, err := srv.Execute(context.Background(), "", similarSQL(0))
	if !errors.Is(err, hashstasherr.ErrShuttingDown) {
		t.Fatalf("post-shutdown Execute = %v", err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	_ = srv.Stats()
}

// TestServerShutdownDrainsRunning: Shutdown while a query runs refuses
// new admissions with the retriable shutdown error, waits for the
// running query, which completes with its answer, and leaks no
// goroutines.
func TestServerShutdownDrainsRunning(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := New(openSlow(t), Config{DefaultTimeout: 30 * time.Second})
	const sql = `SELECT a.l_quantity, COUNT(*) AS n FROM lineitem a, lineitem b
		WHERE a.l_quantity = b.l_quantity GROUP BY a.l_quantity`

	type answer struct {
		rows int
		err  error
	}
	ran := make(chan answer, 1)
	go func() {
		res, _, err := srv.Execute(context.Background(), "", sql)
		if err != nil {
			ran <- answer{err: err}
			return
		}
		ran <- answer{rows: len(res.Rows)}
	}()

	drained := make(chan error, 1)
	whenRunning(t, srv, func() {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			drained <- srv.Shutdown(ctx)
		}()
	})
	for closed := false; !closed; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		closed = srv.closed
		srv.mu.Unlock()
	}
	if _, _, err := srv.Execute(context.Background(), "", similarSQL(0)); !errors.Is(err, hashstasherr.ErrShuttingDown) {
		t.Fatalf("admission while draining = %v", err)
	}

	if err := <-drained; err != nil {
		t.Fatalf("Shutdown did not drain: %v", err)
	}
	if a := <-ran; a.err != nil || a.rows == 0 {
		t.Fatalf("running query: %d rows, err %v; want its answer", a.rows, a.err)
	}
	if st := srv.Stats(); st.PlansExecuted != 1 || st.ShutdownRejects != 1 {
		t.Fatalf("after drain: %+v, want 1 plan and 1 shutdown reject", st)
	}
}

// TestServerDeadlineInsideMorsel: a served query's deadline stops it at
// the next batch of the morsel it is streaming, or at the next output
// batch of a probe fanning one source batch out. The queries
// (testutil.LongMorselSQL and FanoutBatchSQL) self-join lineitem at SF
// 0.01 on one worker with default morsels and NeverReuse. Each outlives
// a 300 ms deadline, and under a 30 ms one Execute returns ErrCanceled
// within 100 ms.
func TestServerDeadlineInsideMorsel(t *testing.T) {
	db := hashstash.Open(hashstash.WithStrategy(hashstash.NeverReuse),
		hashstash.WithTuning(hashstash.Tuning{Parallelism: 1}))
	if err := db.LoadTPCH(0.01); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{DefaultTimeout: 30 * time.Second})
	defer srv.Close()
	testutil.CheckDeadlineInsideMorsel(t, func(ctx context.Context, sql string) error {
		_, _, err := srv.Execute(ctx, "", sql)
		return err
	})
}

// TestGovernorAdmission: the memory governor's grades act at
// admission — Hard refuses with 429 + Retry-After, Soft serves while
// shedding cache and vetoing index builds, and /healthz reports each
// state.
func TestGovernorAdmission(t *testing.T) {
	db := openTPCH(t)
	gov := memgov.New(1000, 2000)
	src := &stubSource{}
	gov.AddSource(src)
	srv := New(db, Config{Governor: gov, DefaultTimeout: 30 * time.Second})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	healthz := func() (int, string) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// OK: serves, healthz 200/ok.
	if _, _, err := srv.Execute(context.Background(), "", similarSQL(0)); err != nil {
		t.Fatalf("Execute at OK: %v", err)
	}
	if code, body := healthz(); code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz at OK = %d %s", code, body)
	}

	// Hard: refused with Retry-After; healthz 503/overloaded. Nothing
	// is sheddable, so the grade stays Hard.
	src.floor.Store(5000)
	src.fp.Store(5000)
	_, _, err := srv.Execute(context.Background(), "", similarSQL(1))
	if !errors.Is(err, hashstasherr.ErrOverloaded) {
		t.Fatalf("Execute at Hard = %v, want ErrOverloaded", err)
	}
	var oe *hashstasherr.OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("hard rejection lacks Retry-After: %v", err)
	}
	if !hashstasherr.IsRetriable(err) {
		t.Fatalf("hard rejection not retriable: %v", err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"sql":"SELECT c_age FROM customer"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hard query status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if code, body := healthz(); code != http.StatusServiceUnavailable || !strings.Contains(body, "overloaded") {
		t.Fatalf("healthz at Hard = %d %s", code, body)
	}
	if srv.Stats().Overloads == 0 {
		t.Fatal("memory rejection not counted in Overloads")
	}

	// Soft: admission sheds what it can (1500 down to the 1200 floor,
	// still above the 1000 watermark) and serves; index builds are
	// vetoed; healthz 200/degraded lists both measures.
	src.floor.Store(1200)
	src.fp.Store(1500)
	if _, _, err := srv.Execute(context.Background(), "", similarSQL(2)); err != nil {
		t.Fatalf("Execute at Soft: %v", err)
	}
	if shed := gov.Stats().ShedBytes; shed != 300 {
		t.Fatalf("ShedBytes at Soft = %d, want 300", shed)
	}
	if gov.AllowIndexBuild() || gov.Stats().VetoedBuilds == 0 {
		t.Fatal("index build not vetoed at Soft")
	}
	code, body := healthz()
	if code != http.StatusOK || !strings.Contains(body, "degraded") {
		t.Fatalf("healthz at Soft = %d %s", code, body)
	}
	for _, m := range []string{"cache-shedding", "index-builds-vetoed"} {
		if !strings.Contains(body, m) {
			t.Fatalf("healthz at Soft lacks measure %q: %s", m, body)
		}
	}
}
