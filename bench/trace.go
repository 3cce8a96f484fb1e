package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hashstash"
	"hashstash/internal/server"
)

const (
	// lockstepFrac of a round's trace, at most lockstepMax queries, is
	// replayed at each depth, and abFrac, at most abMax, on each side
	// of an A/B ratio. They are what the traced run's time goes into;
	// shrink them first if it must get shorter.
	lockstepFrac = 0.25
	lockstepMax  = 200
	abFrac       = 0.10
	abMax        = 100
	// batchSize is the group ab.batch_x runs solo and as one shared
	// plan, and batchReps how often, the median counting.
	batchSize = 16
	batchReps = 5
)

// span is one timed call into a layer's public function. Tracing
// inside the program is a later change, so spans nest by replay depth:
// the same trace prefix is replayed on identically configured fresh
// engines, each entered one layer deeper, and query i keeps id i at
// every depth. Times are nanoseconds since the traced run began.
type span struct {
	ID     int           `json:"id"`
	Name   string        `json:"name"`
	Parent string        `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// openDB builds a fresh in-process engine configured like the
// workload's daemon, plus the switches of an A/B side.
func openDB(s spec, sc scale, shards int, extra ...hashstash.Option) (*hashstash.DB, error) {
	db := hashstash.Open(append(s.engineOptions(sc, shards), extra...)...)
	if err := db.LoadTPCH(sc.sf); err != nil {
		return nil, err
	}
	return db, nil
}

// openServer puts the daemon's serving front-end, at its defaults, on
// a fresh engine.
func openServer(s spec, sc scale) (*server.Server, error) {
	db, err := openDB(s, sc, s.shards)
	if err != nil {
		return nil, err
	}
	return server.New(db, server.Config{}), nil
}

// timed is one depth's replay: when each call began and ended, and
// what the calls allocated.
type timed struct {
	start, end []time.Duration
	mallocs    float64 // per query
	kb         float64 // per query
}

func (t timed) mean() time.Duration {
	var sum time.Duration
	for i := range t.start {
		sum += t.end[i] - t.start[i]
	}
	return sum / time.Duration(len(t.start))
}

// timeLoop times call(i) for i in [0, n) and counts what it allocates.
// keep(i) runs outside both measurements: it reduces the call's output
// to pointer-free bytes, because a benchmark heap full of retained
// result rows makes the collector's marking, and through it the engine
// under test, several times slower.
func timeLoop(origin time.Time, n int, call func(i int) error, keep func(i int)) (timed, error) {
	t := timed{start: make([]time.Duration, n), end: make([]time.Duration, n)}
	var before, after runtime.MemStats
	var mallocs, bytes uint64
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&before)
		t.start[i] = time.Since(origin)
		err := call(i)
		t.end[i] = time.Since(origin)
		runtime.ReadMemStats(&after)
		if err != nil {
			return t, fmt.Errorf("query %d: %w", i, err)
		}
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		keep(i)
	}
	t.mallocs = float64(mallocs) / float64(n)
	t.kb = float64(bytes) / 1024 / float64(n)
	return t, nil
}

// wireOf encodes an engine result as a POST /query body holds it.
func wireOf(res *hashstash.Result) []byte {
	rows, _ := answerOf(res)
	b, err := json.Marshal(struct {
		Rows answer `json:"rows"`
	}{rows})
	if err != nil {
		panic(err) // floats and strings always encode
	}
	return b
}

// replayHTTP is depth 0, client.http: loopback HTTP into the handler.
func replayHTTP(s spec, sc scale, prefix []query, origin time.Time) (timed, [][]byte, error) {
	srv, err := openServer(s, sc)
	if err != nil {
		return timed{}, nil, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return timed{}, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Close below
	}()
	defer func() {
		_ = hs.Close()
		<-served
	}()
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	url := "http://" + ln.Addr().String() + "/query"
	bodies := make([][]byte, len(prefix))
	t, err := timeLoop(origin, len(prefix), func(i int) error {
		resp, err := client.Post(url, "application/json", bytes.NewReader(prefix[i].body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("client.http: status %d", resp.StatusCode)
		}
		bodies[i], err = io.ReadAll(resp.Body)
		return err
	}, func(int) {})
	return t, bodies, err
}

// replayHandler is depth 1, server.handler: the handler, no socket.
func replayHandler(s spec, sc scale, prefix []query, origin time.Time) (timed, [][]byte, error) {
	srv, err := openServer(s, sc)
	if err != nil {
		return timed{}, nil, err
	}
	defer srv.Close()
	handler := srv.Handler()
	bodies := make([][]byte, len(prefix))
	t, err := timeLoop(origin, len(prefix), func(i int) error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(prefix[i].body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("server.handler: status %d", rec.Code)
		}
		bodies[i] = rec.Body.Bytes()
		return nil
	}, func(int) {})
	return t, bodies, err
}

// replayExecute is depth 2, server.execute: admission and execution,
// no codec.
func replayExecute(s spec, sc scale, prefix []query, origin time.Time) (timed, [][]byte, error) {
	srv, err := openServer(s, sc)
	if err != nil {
		return timed{}, nil, err
	}
	defer srv.Close()
	ctx := context.Background()
	bodies := make([][]byte, len(prefix))
	var res *hashstash.Result
	t, err := timeLoop(origin, len(prefix), func(i int) (err error) {
		res, _, err = srv.Execute(ctx, "", prefix[i].sql)
		return err
	}, func(i int) { bodies[i] = wireOf(res) })
	return t, bodies, err
}

// executed is what the engine reported about one query at depth 3.
type executed struct {
	parsed        time.Duration // when db.parse ended and db.exec began
	plan, run     time.Duration // Result.PlanTime, Result.ExecTime
	rowsIn        int64
	rowsOut       int64
	estimatedCost float64
	modes         []string // reuse mode of each executed operator
	legs          int64    // shards that ran a leg of the query
	isFloat       []bool   // which answer columns hold floats
}

// replayEngine is depth 3, db.parse + db.exec: the engine's own entry
// points, with the plan and execution times it reports.
func replayEngine(s spec, sc scale, prefix []query, origin time.Time) (timed, [][]byte, []executed, error) {
	db, err := openDB(s, sc, s.shards)
	if err != nil {
		return timed{}, nil, nil, err
	}
	ctx := context.Background()
	sess := db.NewSession()
	bodies := make([][]byte, len(prefix))
	info := make([]executed, len(prefix))
	var res *hashstash.Result
	t, err := timeLoop(origin, len(prefix), func(i int) error {
		q, err := sess.Parse(prefix[i].sql)
		info[i].parsed = time.Since(origin)
		if err != nil {
			return err
		}
		before := db.ShardQueryCounts()
		res, err = db.ExecParsed(ctx, q)
		info[i].legs = 1 // an unsharded engine is a router of one
		if after := db.ShardQueryCounts(); after != nil {
			info[i].legs = 0
			for sh := range after {
				info[i].legs += after[sh] - before[sh]
			}
		}
		return err
	}, func(i int) {
		x := &info[i]
		x.plan, x.run = res.PlanTime, res.ExecTime
		x.rowsIn, x.rowsOut, x.estimatedCost = res.RowsIn, res.RowsOut, res.EstimatedCost
		for _, d := range res.Decisions {
			if d.Action != 'X' { // X: operator not executed
				x.modes = append(x.modes, d.Mode.String())
			}
		}
		_, x.isFloat = answerOf(res)
		bodies[i] = wireOf(res)
	})
	return t, bodies, info, err
}

// lockstep is the traced run's replay at four depths.
type lockstep struct {
	spans    []span
	failed   int
	failNote string
}

// runLockstep replays prefix at each depth and derives the per-layer
// times, allocations and optimizer outcomes. e2eLat holds the untraced
// daemon round's latency of the same queries (0 for its warm-up).
func runLockstep(s spec, sc scale, prefix []query, e2eLat []time.Duration, m metrics) (lockstep, error) {
	var ls lockstep
	origin := time.Now()
	n := len(prefix)
	d0, bodies0, err := replayHTTP(s, sc, prefix, origin)
	if err != nil {
		return ls, err
	}
	d1, bodies1, err := replayHandler(s, sc, prefix, origin)
	if err != nil {
		return ls, err
	}
	d2, bodies2, err := replayExecute(s, sc, prefix, origin)
	if err != nil {
		return ls, err
	}
	d3, bodies3, info, err := replayEngine(s, sc, prefix, origin)
	if err != nil {
		return ls, err
	}

	// Every depth must give the same answer to query i.
	for i, q := range prefix {
		want, err := parseAnswer(bodies3[i])
		if err != nil {
			return ls, err
		}
		for depth, body := range [][]byte{bodies0[i], bodies1[i], bodies2[i]} {
			if depth > 0 && bytes.Equal(body, bodies0[i]) || bytes.Equal(body, bodies3[i]) {
				continue // same bytes as an answer already compared
			}
			got, err := parseAnswer(body)
			if err == nil {
				err = sameAnswer(q.plan, want, got, info[i].isFloat)
			}
			if err != nil {
				ls.failed++
				if ls.failNote == "" {
					ls.failNote = fmt.Sprintf("%s query %d: depth %d disagrees with db.exec: %v", s.name, i, depth, err)
				}
				break
			}
		}
	}

	var (
		parse, exec, run, collect time.Duration
		planTimes                 []time.Duration
		rowsIn, rowsOut, legSum   int64
		modes                     = map[string]int{}
		decisions, single         int
		estOverActual             []float64
	)
	for i, x := range info {
		execSpan := d3.end[i] - x.parsed
		parse += x.parsed - d3.start[i]
		exec += execSpan
		run += x.run
		collect += execSpan - x.plan - x.run
		planTimes = append(planTimes, x.plan)
		rowsIn += x.rowsIn
		rowsOut += x.rowsOut
		for _, mode := range x.modes {
			modes[mode]++
			decisions++
		}
		if x.run > 0 {
			estOverActual = append(estOverActual, x.estimatedCost/float64(x.run))
		}
		legSum += x.legs
		if x.legs == 1 {
			single++
		}
		planEnd := x.parsed + x.plan
		ls.spans = append(ls.spans,
			span{i, "client.http", "", d0.start[i], d0.end[i]},
			span{i, "server.handler", "client.http", d1.start[i], d1.end[i]},
			span{i, "server.execute", "server.handler", d2.start[i], d2.end[i]},
			span{i, "db.parse", "server.execute", d3.start[i], x.parsed},
			span{i, "db.exec", "server.execute", x.parsed, d3.end[i]},
			span{i, "optimizer.plan", "db.exec", x.parsed, planEnd},
			span{i, "exec.run", "db.exec", planEnd, planEnd + x.run},
		)
	}
	per := func(total time.Duration) time.Duration { return total / time.Duration(n) }

	// Self time is a span minus its children, here as means.
	m.set("net.self_ms", ms(d0.mean()-d1.mean()), "ms")
	m.set("server.codec.self_ms", ms(d1.mean()-d2.mean()), "ms")
	m.set("server.codec.allocs_per_query", d1.mallocs-d2.mallocs, "count")
	m.set("server.admit.self_ms", ms(d2.mean()-per(parse)-per(exec)), "ms")
	m.set("server.execute.allocs_per_query", d2.mallocs, "count")
	m.set("sqlparser.parse_ms", ms(per(parse)), "ms")
	m.set("optimizer.plan_ms", ms(meanDuration(planTimes)), "ms")
	tenth := max(n/10, 1)
	m.set("optimizer.plan_growth_x", ratio(float64(meanDuration(planTimes[n-tenth:])), float64(meanDuration(planTimes[:tenth]))), "ratio")
	m.set("exec.run_ms", ms(per(run)), "ms")
	m.set("optimizer.collect_ms", ms(per(collect)), "ms")
	m.set("db.exec.allocs_per_query", d3.mallocs, "count")
	m.set("db.exec.kb_per_query", d3.kb, "KiB")
	m.set("optimizer.rows_in_per_row_out", ratio(float64(rowsIn), float64(rowsOut)), "ratio")
	for _, mode := range []string{"exact", "subsuming", "partial", "overlapping"} {
		m.set("optimizer.reuse_"+mode+"_frac", ratio(float64(modes[mode]), float64(decisions)), "ratio")
	}
	m.set("optimizer.reuse_fresh_frac", ratio(float64(modes["new"]), float64(decisions)), "ratio")
	m.set("costmodel.est_over_actual_p50", median(estOverActual), "ratio")
	m.set("shard.single_route_frac", float64(single)/float64(n), "ratio")
	m.set("shard.legs_per_query", float64(legSum)/float64(n), "ratio")

	// Tracing overhead: the traced client.http mean against the
	// untraced daemon's, over the queries both timed.
	var traced, untraced time.Duration
	for i := range prefix {
		if i < len(e2eLat) && e2eLat[i] > 0 {
			traced += d0.end[i] - d0.start[i]
			untraced += e2eLat[i]
		}
	}
	m.set("trace.overhead_frac", ratio(float64(traced-untraced), float64(untraced)), "ratio")
	return ls, nil
}

// wallOf replays prefix through ExecParsed on a fresh engine and
// returns the wall time of the whole replay.
func wallOf(s spec, sc scale, shards int, prefix []query, extra ...hashstash.Option) (time.Duration, error) {
	db, err := openDB(s, sc, shards, extra...)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	start := time.Now()
	for i, q := range prefix {
		if _, err := db.ExecParsed(ctx, q.plan); err != nil {
			return 0, fmt.Errorf("query %d: %w", i, err)
		}
	}
	return time.Since(start), nil
}

// abRatios measures each mechanism as a same-run ratio of wall times:
// the same prefix, sequentially, on two fresh engines that differ in
// one switch. Every ratio is "without ÷ with" the mechanism, so above
// 1 means the mechanism pays on this workload.
func abRatios(s spec, sc scale, trace []query, m metrics) error {
	prefix := trace[:abCount(len(trace))]
	base, err := wallOf(s, sc, s.shards, prefix)
	if err != nil {
		return err
	}
	otherShards := 2
	if s.shards > 1 {
		otherShards = 1
	}
	variants := []struct {
		name   string
		shards int
		opt    hashstash.Option
		// baseOnTop is set where the base engine is the side without
		// the mechanism.
		baseOnTop bool
	}{
		{"ab.reuse_x", s.shards, hashstash.WithStrategy(hashstash.NeverReuse), false},
		{"ab.materialized_x", s.shards, hashstash.WithEngine(hashstash.EngineMaterialized), false},
		{"ab.benefit_vs_lru_x", s.shards, hashstash.WithAblations(hashstash.Ablations{LRUEviction: true}), false},
		{"ab.coldtier_x", s.shards, hashstash.WithTuning(hashstash.Tuning{ColdTierBudget: 4 * s.cache(sc)}), true},
		{"ab.index_x", s.shards, hashstash.WithAblations(hashstash.Ablations{NoSecondaryIndexes: true}), false},
		{"ab.shards_x", otherShards, nil, s.shards == 1},
	}
	for _, v := range variants {
		var extra []hashstash.Option
		if v.opt != nil {
			extra = append(extra, v.opt)
		}
		wall, err := wallOf(s, sc, v.shards, prefix, extra...)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		if v.baseOnTop {
			m.set(v.name, float64(base)/float64(wall), "ratio")
		} else {
			m.set(v.name, float64(wall)/float64(base), "ratio")
		}
	}
	return batchRatio(s, sc, trace, m)
}

// lockstepCount and abCount are the prefixes of a trace of n queries
// that the lockstep replay and each side of an A/B ratio run.
func lockstepCount(n int) int { return min(max(int(lockstepFrac*float64(n)), 2), lockstepMax) }
func abCount(n int) int       { return min(max(int(abFrac*float64(n)), 2), abMax) }

// batchRatio is ab.batch_x (paper Exp 3): batchSize same-spine queries
// run one by one ÷ the same queries as one shared plan, with reuse off
// so that only sharing differs. Two connections cannot make a 2 ms
// batch window fill, so the daemon never batches in the closed loop
// and sharing is measured here only.
func batchRatio(s spec, sc scale, trace []query, m metrics) error {
	byShape := map[string][]*hashstash.Query{}
	var best string
	for _, q := range trace {
		shape, ok := hashstash.BatchShape(q.plan)
		if !ok {
			continue
		}
		if len(byShape[shape]) < batchSize {
			byShape[shape] = append(byShape[shape], q.plan)
		}
		if len(byShape[shape]) > len(byShape[best]) {
			best = shape
		}
	}
	group := byShape[best]
	if len(group) < 2 {
		return fmt.Errorf("ab.batch_x: %s has no two queries of one shape", s.name)
	}
	// Shared plans need the unsharded engine.
	db, err := openDB(s, sc, 1, hashstash.WithStrategy(hashstash.NeverReuse))
	if err != nil {
		return err
	}
	ctx := context.Background()
	ratios := make([]float64, batchReps)
	for r := range ratios {
		start := time.Now()
		for _, q := range group {
			if _, err := db.ExecParsed(ctx, q); err != nil {
				return fmt.Errorf("ab.batch_x solo: %w", err)
			}
		}
		solo := time.Since(start)
		start = time.Now()
		if _, err := db.ExecParsedBatch(ctx, group); err != nil {
			return fmt.Errorf("ab.batch_x batch: %w", err)
		}
		ratios[r] = float64(solo) / float64(time.Since(start))
	}
	m.set("ab.batch_x", median(ratios), "ratio")
	return nil
}

// writeSpans writes the trace as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
