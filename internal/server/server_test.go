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

// similarSQL is a family of same-spine queries (one batch shape).
func similarSQL(i int) string {
	return fmt.Sprintf(`SELECT c.c_age, SUM(l.l_extendedprice) AS revenue
		FROM customer c, orders o, lineitem l
		WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
		  AND l.l_shipdate >= DATE '1995-%02d-01' GROUP BY c.c_age`, 1+i%12)
}

// slowSQL self-joins lineitem on a seven-valued column: tens of
// millions of joined pairs at SF 0.002, so it runs for a second or so,
// and under NeverReuse every run computes them again.
const slowSQL = `SELECT a.l_linenumber, COUNT(*) AS n FROM lineitem a, lineitem b
	WHERE a.l_linenumber = b.l_linenumber GROUP BY a.l_linenumber`

// openSlow opens a NeverReuse database whose scans split into small
// morsels, so a cancellation lands within a few milliseconds of work.
func openSlow(t *testing.T) *hashstash.DB {
	return openTPCH(t, hashstash.WithStrategy(hashstash.NeverReuse),
		hashstash.WithTuning(hashstash.Tuning{MorselRows: 256}))
}

// whenRunning calls fn once a query is executing on the server.
func whenRunning(t *testing.T, srv *Server, fn func()) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.mu.Lock()
		active := srv.active
		srv.mu.Unlock()
		if active > 0 {
			fn()
			return
		}
		if time.Now().After(deadline) {
			t.Error("no query started running")
			fn()
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerBurstEquivalence: 24 clients sending same-spine queries at
// once, on a database where a batch would merge them (NeverReuse), get
// the answers the library gives for the same SQL, and the server runs
// one plan per query: nothing waits for or merges with a companion.
func TestServerBurstEquivalence(t *testing.T) {
	db := openTPCH(t, hashstash.WithStrategy(hashstash.NeverReuse))
	srv := New(db, Config{DefaultTimeout: 60 * time.Second})
	defer srv.Close()

	library := openTPCH(t)
	const clients = 24
	want := make([]string, clients)
	for i := range want {
		res, err := library.Exec(similarSQL(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = canonical(res)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, clients)
	got := make([]string, clients)
	infos := make([]QueryInfo, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, info, err := srv.Execute(context.Background(), fmt.Sprintf("t%d", i%3), similarSQL(i))
			if err != nil {
				errs[i] = err
				return
			}
			got[i], infos[i] = canonical(res), info
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("client %d diverged from the library's answer", i)
		}
		if infos[i] != (QueryInfo{Mode: "solo"}) {
			t.Errorf("client %d ran as %+v, want solo", i, infos[i])
		}
	}
	st := srv.Stats()
	if st.TotalQueries != clients || st.PlansExecuted != st.TotalQueries {
		t.Fatalf("TotalQueries = %d, PlansExecuted = %d; want %d each", st.TotalQueries, st.PlansExecuted, clients)
	}
}

// TestServerLoneClientNeverQueues: one sequential client's queries each
// run at once, one plan per query.
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
	}
	if st := srv.Stats(); st.PlansExecuted != n || st.BatchedQueries != 0 || st.RateBypass != 0 {
		t.Fatalf("PlansExecuted = %d, BatchedQueries = %d, RateBypass = %d; want %d, 0, 0",
			st.PlansExecuted, st.BatchedQueries, st.RateBypass, n)
	}
}

// TestServerCancel: a query whose context is canceled, or whose
// deadline expires, while it runs returns an error wrapping
// ErrCanceled from Execute and a 408 from POST /query, and Shutdown
// drains afterwards with nothing left running.
func TestServerCancel(t *testing.T) {
	db := openSlow(t)
	for _, tc := range []struct {
		name  string
		cause error
		// start returns the query's context, which is canceled or
		// expires while the query runs, and a func that releases it.
		start func(t *testing.T, srv *Server) (context.Context, func())
	}{
		{"canceled", context.Canceled, func(t *testing.T, srv *Server) (context.Context, func()) {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				whenRunning(t, srv, cancel)
			}()
			return ctx, func() { cancel(); <-done }
		}},
		{"deadline", context.DeadlineExceeded, func(*testing.T, *Server) (context.Context, func()) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			return ctx, cancel
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(db, Config{DefaultTimeout: 60 * time.Second})

			ctx, release := tc.start(t, srv)
			_, _, err := srv.Execute(ctx, "", slowSQL)
			release()
			if !errors.Is(err, hashstasherr.ErrCanceled) || !errors.Is(err, tc.cause) {
				t.Fatalf("Execute = %v, want ErrCanceled caused by %v", err, tc.cause)
			}

			ctx, release = tc.start(t, srv)
			body := fmt.Sprintf(`{"sql": %q}`, slowSQL)
			req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			release()
			if rec.Code != http.StatusRequestTimeout {
				t.Fatalf("POST /query = %d %s, want 408", rec.Code, rec.Body)
			}

			drainCtx, drainCancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer drainCancel()
			if err := srv.Shutdown(drainCtx); err != nil {
				t.Fatalf("Shutdown after cancellation: %v", err)
			}
			srv.mu.Lock()
			active := srv.active
			srv.mu.Unlock()
			if active != 0 {
				t.Fatalf("%d queries still running after the drain", active)
			}
		})
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
	stats := func() Stats {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Server Stats `json:"server"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Server
	}
	before := stats()
	if code, _ := post(`{"sql": "SELECT FROM"}`); code != http.StatusBadRequest {
		t.Fatalf("parse error status %d, want 400", code)
	}
	// A statement that fails to parse is counted, and runs no plan.
	after := stats()
	if after.TotalQueries != before.TotalQueries+1 || after.PlansExecuted != before.PlansExecuted {
		t.Fatalf("a parse error moved TotalQueries %d -> %d and PlansExecuted %d -> %d; want +1 and +0",
			before.TotalQueries, after.TotalQueries, before.PlansExecuted, after.PlansExecuted)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
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
	stats := func() Stats {
		t.Helper()
		var st Stats
		if err := json.Unmarshal([]byte(send("STATS")), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	before := stats()
	if before.TotalQueries == 0 {
		t.Fatal("line STATS reports no traffic")
	}
	// A statement that fails to parse is counted, and runs no plan.
	if err := json.Unmarshal([]byte(send("SELECT FROM")), &qr); err != nil || qr.Error == "" {
		t.Fatalf("parse error reply: %+v, %v", qr, err)
	}
	after := stats()
	if after.TotalQueries != before.TotalQueries+1 || after.PlansExecuted != before.PlansExecuted {
		t.Fatalf("a parse error moved TotalQueries %d -> %d and PlansExecuted %d -> %d; want +1 and +0",
			before.TotalQueries, after.TotalQueries, before.PlansExecuted, after.PlansExecuted)
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
// schedule of the similar mix through the server stays byte-correct
// (checked against the library's execution of each text).
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
