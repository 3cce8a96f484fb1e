package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hashstash"
	"hashstash/hashstasherr"
	"hashstash/internal/workload"
)

func openTPCH(t *testing.T, opts ...hashstash.Option) *hashstash.DB {
	t.Helper()
	db := hashstash.Open(opts...)
	if err := db.LoadTPCH(0.002); err != nil {
		t.Fatal(err)
	}
	return db
}

// canonical renders a result order-independently for equivalence
// checks (float cells rounded to absorb summation-order drift).
func canonical(r *hashstash.Result) string {
	rows := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			if v.Kind == 1 { // types.Float64
				parts[j] = fmt.Sprintf("%.4f", v.F)
			} else {
				parts[j] = v.String()
			}
		}
		rows = append(rows, strings.Join(parts, "|"))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// similarSQL is a family of same-spine queries (batchable together).
func similarSQL(i int) string {
	return fmt.Sprintf(`SELECT c.c_age, SUM(l.l_extendedprice) AS revenue
		FROM customer c, orders o, lineitem l
		WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
		  AND l.l_shipdate >= DATE '1995-%02d-01' GROUP BY c.c_age`, 1+i%12)
}

// busyShape marks sql's shape as running, as if an execution of it
// were in flight, so arrivals of the shape queue until the test calls
// srv.release with the returned key (the running execution ending).
func busyShape(t *testing.T, srv *Server, sql string) string {
	t.Helper()
	q, err := srv.session("").Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	shape, ok := hashstash.BatchShape(q)
	if !ok {
		t.Fatalf("not batchable: %s", sql)
	}
	srv.mu.Lock()
	srv.shape(shape).running = true
	srv.mu.Unlock()
	return shape
}

// waitSettled polls until n callers are each either queued or
// returned.
func waitSettled(t *testing.T, srv *Server, returned *atomic.Int64, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for returned.Load()+srv.Stats().QueueDepth < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d returned + %d queued of %d callers", returned.Load(), srv.Stats().QueueDepth, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServerBatchingEquivalence: concurrent clients sending same-spine
// queries get byte-equivalent results to solo execution, and the
// server executes fewer plans than queries (shared-plan batching).
func TestServerBatchingEquivalence(t *testing.T) {
	// Disable hash-table reuse entirely: a warm cache can make solo
	// plans cheaper than sharing, and the DP (correctly) refuses to
	// merge. With reuse off, solo plans stay at full cost and the batch
	// is always the modeled winner, so the test exercises the server's
	// batching machinery deterministically.
	db := openTPCH(t, hashstash.WithStrategy(hashstash.NeverReuse))
	srv := New(db, Config{MaxBatch: 16, DefaultTimeout: 60 * time.Second})
	defer srv.Close()

	solo := openTPCH(t)
	want := make(map[string]string)
	const clients = 24
	for i := 0; i < clients; i++ {
		sql := similarSQL(i)
		if _, ok := want[sql]; !ok {
			res, err := solo.Exec(sql)
			if err != nil {
				t.Fatal(err)
			}
			want[sql] = canonical(res)
		}
	}

	// Every client arrives while the shape is running, so all of them
	// queue; the release dispatches them as a group of 16, then 8.
	shape := busyShape(t, srv, similarSQL(0))
	var wg sync.WaitGroup
	var returned atomic.Int64
	errs := make([]error, clients)
	got := make([]string, clients)
	modes := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer returned.Add(1)
			res, info, err := srv.Execute(context.Background(), fmt.Sprintf("t%d", i%3), similarSQL(i))
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = canonical(res)
			modes[i] = info.Mode
		}(i)
	}
	waitSettled(t, srv, &returned, clients)
	srv.release(shape)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if got[i] != want[similarSQL(i)] {
			t.Errorf("client %d (mode %s) diverged from solo execution", i, modes[i])
		}
	}
	st := srv.Stats()
	if st.TotalQueries != clients {
		t.Fatalf("TotalQueries = %d, want %d", st.TotalQueries, clients)
	}
	if st.BatchedQueries == 0 {
		t.Fatalf("no queries batched: %+v (modes %v)", st, modes)
	}
	if st.PlansExecuted >= st.TotalQueries {
		t.Fatalf("batching executed %d plans for %d queries", st.PlansExecuted, st.TotalQueries)
	}
	t.Logf("stats: %+v", st)
}

// TestServerLoneClientNeverQueues: one sequential client always finds
// its shape idle, so every query runs at once — nothing queues and no
// query waits for a companion that cannot come.
func TestServerLoneClientNeverQueues(t *testing.T) {
	db := openTPCH(t, hashstash.WithStrategy(hashstash.NeverReuse))
	srv := New(db, Config{DefaultTimeout: 60 * time.Second})
	defer srv.Close()

	const n = 50
	for i := 0; i < n; i++ {
		_, info, err := srv.Execute(context.Background(), "", similarSQL(i))
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode != "solo" {
			t.Fatalf("query %d mode = %q, want solo", i, info.Mode)
		}
		if d := srv.Stats().QueueDepth; d != 0 {
			t.Fatalf("query %d left queue depth %d", i, d)
		}
	}
	if st := srv.Stats(); st.RateBypass != n || st.Batches != 0 {
		t.Fatalf("RateBypass = %d, Batches = %d; want %d, 0", st.RateBypass, st.Batches, n)
	}
}

// TestServerCoincidenceGroups: k arrivals against a running shape
// dispatch when it is released, as ceil(k/MaxBatch) consecutive
// groups, after which the shape goes idle.
func TestServerCoincidenceGroups(t *testing.T) {
	for _, tc := range []struct{ k, maxBatch, groups int }{
		{k: 5, maxBatch: 16, groups: 1},
		{k: 10, maxBatch: 4, groups: 3},
	} {
		t.Run(fmt.Sprintf("k=%d/max=%d", tc.k, tc.maxBatch), func(t *testing.T) {
			db := openTPCH(t, hashstash.WithStrategy(hashstash.NeverReuse))
			srv := New(db, Config{MaxBatch: tc.maxBatch, DefaultTimeout: 60 * time.Second})
			defer srv.Close()

			shape := busyShape(t, srv, similarSQL(0))
			var wg sync.WaitGroup
			var returned atomic.Int64
			modes := make([]string, tc.k)
			for i := 0; i < tc.k; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					defer returned.Add(1)
					_, info, err := srv.Execute(context.Background(), "", similarSQL(0))
					if err != nil {
						t.Error(err)
					}
					modes[i] = info.Mode
				}(i)
			}
			waitSettled(t, srv, &returned, int64(tc.k))
			if returned.Load() != 0 {
				t.Fatalf("%d arrivals did not queue behind the running shape", returned.Load())
			}
			srv.release(shape)
			wg.Wait()
			srv.Close() // waits out the last group's release

			st := srv.Stats()
			if st.Batches != int64(tc.groups) || st.BatchedQueries != int64(tc.k) {
				t.Fatalf("Batches = %d, BatchedQueries = %d; want %d, %d (modes %v)",
					st.Batches, st.BatchedQueries, tc.groups, tc.k, modes)
			}
			srv.mu.Lock()
			running := srv.shapes[shape].running
			srv.mu.Unlock()
			if running {
				t.Fatal("shape still running after its queue drained")
			}
		})
	}
}

// TestServerShardedLookupsBypassGain: on a two-shard database a
// customer ⋈ orders point lookup routes to one shard, where modeled
// sharing of two lookups does not pay. Two concurrent lookups of the
// shape therefore bypass the queue even while the shape is running.
func TestServerShardedLookupsBypassGain(t *testing.T) {
	db := openTPCH(t, hashstash.WithTuning(hashstash.Tuning{Shards: 2}),
		hashstash.WithPartitionKey("customer", "c_custkey"), hashstash.WithPartitionKey("orders", "o_custkey"))
	srv := New(db, Config{DefaultTimeout: 60 * time.Second})
	defer srv.Close()
	lookup := func(key int) string {
		return fmt.Sprintf(`SELECT c.c_age, SUM(o.o_totalprice) AS spend FROM customer c, orders o
			WHERE c.c_custkey = o.o_custkey AND c.c_custkey = %d GROUP BY c.c_age`, key)
	}

	shape := busyShape(t, srv, lookup(1))
	defer srv.release(shape)
	modes := make([]string, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range modes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, info, err := srv.Execute(context.Background(), "", lookup(40+i))
			modes[i], errs[i] = info.Mode, err
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("lookups queued behind the running shape (queue depth %d)", srv.Stats().QueueDepth)
	}
	for i := range modes {
		if errs[i] != nil || modes[i] != "bypass-gain" {
			t.Fatalf("lookup %d: mode %q, err %v; want bypass-gain", i, modes[i], errs[i])
		}
	}
	if st := srv.Stats(); st.NoGainBypass != 2 || st.QueueDepth != 0 || st.Batches != 0 {
		t.Fatalf("NoGainBypass = %d, QueueDepth = %d, Batches = %d; want 2, 0, 0", st.NoGainBypass, st.QueueDepth, st.Batches)
	}
}

// TestServerBackpressure: a burst past MaxQueue is refused with
// ErrOverloaded; admitted queries still complete.
func TestServerBackpressure(t *testing.T) {
	db := openTPCH(t)
	srv := New(db, Config{
		MaxQueue:       4,
		MaxBatch:       64,
		DefaultTimeout: 60 * time.Second,
		TenantShare:    1,
	})

	shape := busyShape(t, srv, similarSQL(0))
	const clients = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	var overloads, ok int
	var returned atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := srv.Execute(context.Background(), "", similarSQL(0))
			returned.Add(1)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, hashstasherr.ErrOverloaded):
				overloads++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}

	// Once every caller is either queued or bounced, the running
	// execution ends and hands the queue its turn.
	waitSettled(t, srv, &returned, clients)
	srv.release(shape)
	wg.Wait()
	srv.Close()

	st := srv.Stats()
	if st.Overloads != clients-4 || overloads != clients-4 {
		t.Fatalf("backpressure: stats %+v, callers saw %d overloads, want %d", st, overloads, clients-4)
	}
	if ok != 4 {
		t.Fatalf("%d queued queries completed, want 4", ok)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue not drained: %d", st.QueueDepth)
	}
}

// TestServerTenantFairness: one tenant cannot occupy more than
// TenantShare of the queue; another tenant still gets in.
func TestServerTenantFairness(t *testing.T) {
	db := openTPCH(t)
	srv := New(db, Config{
		MaxQueue:       8,
		MaxBatch:       64,
		DefaultTimeout: 60 * time.Second,
		TenantShare:    0.25, // per-tenant cap: 2
	})

	shape := busyShape(t, srv, similarSQL(0))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var returned atomic.Int64
	counts := map[string]map[string]int{"A": {}, "B": {}}
	run := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, err := srv.Execute(context.Background(), tenant, similarSQL(0))
				returned.Add(1)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					counts[tenant]["ok"]++
				case errors.Is(err, hashstasherr.ErrOverloaded):
					counts[tenant]["overload"]++
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}()
		}
	}

	// Tenant A bursts past its share: 2 queue, the rest bounce. Tenant
	// B arrives while A is saturated and still gets its share.
	run("A", 7)
	waitSettled(t, srv, &returned, 7)
	run("B", 2)
	waitSettled(t, srv, &returned, 9)
	srv.release(shape)
	wg.Wait()
	srv.Close()

	if counts["A"]["overload"] != 5 || counts["A"]["ok"] != 2 {
		t.Fatalf("tenant A not held to its share: %v", counts)
	}
	if counts["B"]["overload"] != 0 {
		t.Fatalf("tenant B throttled despite free share: %v", counts)
	}
	if counts["B"]["ok"] != 2 {
		t.Fatalf("tenant B completed %d of 2: %v", counts["B"]["ok"], counts)
	}
}

// TestServerDeadlineDegradation: a query that would queue but whose
// deadline cannot absorb the wait runs solo immediately — a result,
// not an error. The same budget on an idle shape runs at once.
func TestServerDeadlineDegradation(t *testing.T) {
	db := openTPCH(t)
	srv := New(db, Config{DefaultTimeout: 60 * time.Second})
	defer srv.Close()

	// An hour of modeled run time: no 3s budget can absorb the wait,
	// while the real solo run needs milliseconds.
	shape := busyShape(t, srv, similarSQL(0))
	srv.mu.Lock()
	sq := srv.shapes[shape]
	sq.gainChecked, sq.gainOK, sq.estCost = true, true, float64(time.Hour)
	srv.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	res, info, err := srv.Execute(ctx, "", similarSQL(0))
	if err != nil {
		t.Fatalf("tight-deadline query failed: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if info.Mode != "degraded-deadline" {
		t.Fatalf("mode = %q, want degraded-deadline", info.Mode)
	}
	if srv.Stats().DegradedDeadline != 1 {
		t.Fatal("DegradedDeadline counter not bumped")
	}

	srv.release(shape)
	if _, info, err = srv.Execute(ctx, "", similarSQL(0)); err != nil || info.Mode != "solo" {
		t.Fatalf("idle shape under the same budget: mode %q, err %v; want solo", info.Mode, err)
	}
}

// TestServerQueuedCancel: canceling a queued query withdraws it with a
// typed error and frees its queue slot.
func TestServerQueuedCancel(t *testing.T) {
	db := openTPCH(t)
	srv := New(db, Config{MaxBatch: 64, DefaultTimeout: 60 * time.Second})
	defer srv.Close()

	shape := busyShape(t, srv, similarSQL(0))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := srv.Execute(ctx, "", similarSQL(0))
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().QueueDepth == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if srv.Stats().QueueDepth == 0 {
		t.Fatal("query never queued")
	}
	cancel()
	err := <-done
	if !errors.Is(err, hashstasherr.ErrCanceled) {
		t.Fatalf("withdrawn query returned %v", err)
	}
	if srv.Stats().QueueDepth != 0 {
		t.Fatal("withdrawn query left a queue slot")
	}
	// With its only queued query withdrawn, the release idles the shape.
	srv.release(shape)
	srv.mu.Lock()
	running := srv.shapes[shape].running
	srv.mu.Unlock()
	if running {
		t.Fatal("release of an empty queue left the shape running")
	}
}

// TestServerClosedRejects: Execute after Close fails fast with the
// retriable shutdown error (a well-behaved client may replay it
// against another replica).
func TestServerClosedRejects(t *testing.T) {
	db := openTPCH(t)
	srv := New(db, Config{})
	srv.Close()
	_, _, err := srv.Execute(context.Background(), "", similarSQL(0))
	if !errors.Is(err, hashstasherr.ErrShuttingDown) {
		t.Fatalf("post-Close Execute returned %v", err)
	}
	if !hashstasherr.IsRetriable(err) {
		t.Fatalf("shutdown rejection not retriable: %v", err)
	}
}

// TestServerHTTP: the HTTP front-end round-trips queries, maps the
// error taxonomy to statuses, and serves stats.
func TestServerHTTP(t *testing.T) {
	db := openTPCH(t)
	srv := New(db, Config{DefaultTimeout: 60 * time.Second})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) (int, map[string]interface{}) {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}

	code, m := post(fmt.Sprintf(`{"sql": %q, "tenant": "acme"}`, similarSQL(0)))
	if code != http.StatusOK {
		t.Fatalf("query status %d: %v", code, m)
	}
	if len(m["rows"].([]interface{})) == 0 {
		t.Fatal("no rows over HTTP")
	}
	if code, _ := post(`{"sql": "SELECT x.y FROM nope x"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown table status %d, want 400", code)
	}
	if code, _ := post(`{"sql": "SELECT FROM"}`); code != http.StatusBadRequest {
		t.Fatalf("parse error status %d, want 400", code)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Server Stats `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Server.TotalQueries == 0 {
		t.Fatal("stats endpoint reports no traffic")
	}
	if resp, err = http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

// TestServerLineProtocol: HELLO/SQL/STATS/QUIT over a TCP connection.
func TestServerLineProtocol(t *testing.T) {
	db := openTPCH(t)
	srv := New(db, Config{DefaultTimeout: 60 * time.Second})
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
	rd := bufio.NewReader(conn)
	send := func(line string) string {
		if _, err := fmt.Fprintln(conn, line); err != nil {
			t.Fatal(err)
		}
		out, err := rd.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(out)
	}

	if got := send("HELLO acme"); got != "OK acme" {
		t.Fatalf("HELLO reply %q", got)
	}
	oneLine := strings.Join(strings.Fields(similarSQL(0)), " ")
	var qr struct {
		Rows  [][]interface{} `json:"rows"`
		Error string          `json:"error"`
	}
	if err := json.Unmarshal([]byte(send(oneLine)), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Error != "" || len(qr.Rows) == 0 {
		t.Fatalf("line query reply: %+v", qr)
	}
	var st Stats
	if err := json.Unmarshal([]byte(send("STATS")), &st); err != nil {
		t.Fatal(err)
	}
	if st.TotalQueries == 0 {
		t.Fatal("line STATS reports no traffic")
	}
	if _, err := fmt.Fprintln(conn, "QUIT"); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.ReadString('\n'); err == nil {
		t.Fatal("connection stayed open after QUIT")
	}
}

// TestServerNonFiniteResult: a float aggregate that overflows to ±Inf
// (l_discount is 0 on some rows) still answers on both protocols — a
// 200 with a parseable body over HTTP, a result line over the line
// protocol — with the cell as null.
func TestServerNonFiniteResult(t *testing.T) {
	const sql = "SELECT SUM(l.l_extendedprice / l.l_discount) FROM lineitem l"
	db := openTPCH(t)
	srv := New(db, Config{DefaultTimeout: 60 * time.Second})
	defer srv.Close()
	type answer struct {
		Rows  [][]interface{} `json:"rows"`
		Error string          `json:"error"`
	}
	checkNull := func(proto string, a answer) {
		t.Helper()
		if a.Error != "" || len(a.Rows) != 1 || len(a.Rows[0]) != 1 || a.Rows[0][0] != nil {
			t.Fatalf("%s answer %+v, want one null cell", proto, a)
		}
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(fmt.Sprintf(`{"sql": %q}`, sql)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var a answer
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatalf("HTTP body: %v", err)
	}
	checkNull("HTTP", a)

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
	if _, err := fmt.Fprintln(conn, sql); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("no result line: %v", err)
	}
	a = answer{}
	if err := json.Unmarshal(line, &a); err != nil {
		t.Fatalf("line %q: %v", line, err)
	}
	checkNull("line", a)
}

// TestServerOpenLoopWorkload: replaying a generated open-loop arrival
// schedule through the server batches the similar mix and stays
// byte-correct (spot-checked against solo execution).
func TestServerOpenLoopWorkload(t *testing.T) {
	db := openTPCH(t)
	srv := New(db, Config{DefaultTimeout: 60 * time.Second})
	defer srv.Close()

	arrivals := workload.GenerateOpenLoop(30, 2000, workload.MixSimilar, []string{"a", "b"}, 7)
	solo := openTPCH(t)
	want := make(map[string]string)
	for _, a := range arrivals {
		if _, ok := want[a.SQL]; !ok {
			res, err := solo.Exec(a.SQL)
			if err != nil {
				t.Fatalf("workload SQL does not parse solo: %v", err)
			}
			want[a.SQL] = canonical(res)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, len(arrivals))
	for _, a := range arrivals {
		wg.Add(1)
		go func(a workload.Arrival) {
			defer wg.Done()
			if d := time.Until(start.Add(a.At)); d > 0 {
				time.Sleep(d)
			}
			res, _, err := srv.Execute(context.Background(), a.Tenant, a.SQL)
			if err != nil {
				errCh <- fmt.Errorf("%s: %w", a.SQL, err)
				return
			}
			if canonical(res) != want[a.SQL] {
				errCh <- fmt.Errorf("result diverged for %s", a.SQL)
			}
		}(a)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st := srv.Stats()
	if st.TotalQueries != int64(len(arrivals)) {
		t.Fatalf("TotalQueries = %d, want %d", st.TotalQueries, len(arrivals))
	}
	t.Logf("open-loop stats: %+v", st)
}
