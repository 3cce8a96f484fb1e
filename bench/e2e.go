package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// verifyEvery is the stride of answers checked against the reference
// engine. It is prime because traces have periods (every fourth export
// query is a top-k): a stride of 16 would never check one kind.
const verifyEvery = 17

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// round is what one daemon lifetime measured: set-up, warm-up, then a
// closed loop over the trace past its warm-up prefix.
type round struct {
	setup     time.Duration // spawn until /healthz answers 200
	warmup    time.Duration
	wall      time.Duration
	latencies []time.Duration // one per attempted query, in trace order
	attempted int
	failed    int // transport errors + non-200 answers + mismatches
	firstFail string
	respBytes int64
	cpuSec    float64
	rssMiB    float64
	before    daemonStats
	after     daemonStats
	// The verified answers' sizes: how many there were, and their
	// bytes, rows and cells.
	sampled, sampleBytes, sampleRows, sampleCells int
}

// runRound spawns the daemon, warms it up, replays the rest of the
// trace from s.clients closed-loop clients and verifies every
// verifyEvery-th answer after the daemon has stopped.
func runRound(ctx context.Context, bin string, s spec, sc scale, trace []query, ref *reference) (round, error) {
	var r round
	d, err := spawn(ctx, bin, s.daemonFlags(sc), s.clients)
	if err != nil {
		return r, err
	}
	defer d.stop()
	r.setup = d.setup

	warm := warmCount(len(trace))
	warmStart := time.Now()
	for i, q := range trace[:warm] {
		status, _, err := d.post(q.body)
		if err != nil || status != http.StatusOK {
			return r, fmt.Errorf("warm-up query %d: status %d: %v", i, status, err)
		}
	}
	r.warmup = time.Since(warmStart)

	measured := trace[warm:]
	r.attempted = len(measured)
	r.latencies = make([]time.Duration, len(measured))
	type reply struct {
		status, size int
		body         []byte // kept for the verified stride and for failures
	}
	replies := make([]reply, len(measured))

	if r.before, err = d.stats(); err != nil {
		return r, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return r, err
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(measured) {
					return
				}
				sent := time.Now()
				status, body, err := d.post(measured[i].body)
				r.latencies[i] = time.Since(sent)
				if err != nil {
					status = -1
				}
				replies[i] = reply{status: status, size: len(body)}
				if i%verifyEvery == 0 || status != http.StatusOK {
					replies[i].body = body
				}
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(t0)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return r, err
	}
	r.cpuSec = cpu1 - cpu0
	if r.after, err = d.stats(); err != nil {
		return r, err
	}
	if r.rssMiB, err = d.rssPeakMiB(); err != nil {
		return r, err
	}
	d.stop()

	fail := func(i int, format string, args ...any) {
		r.failed++
		if r.firstFail == "" {
			r.firstFail = fmt.Sprintf("%s query %d: ", s.name, warm+i) + fmt.Sprintf(format, args...)
		}
	}
	for i, q := range measured {
		rep := replies[i]
		r.respBytes += int64(rep.size)
		switch {
		case rep.status != http.StatusOK:
			fail(i, "status %d: %.200s", rep.status, rep.body)
		case i%verifyEvery == 0:
			got, err := parseAnswer(rep.body)
			if err == nil {
				err = ref.check(q, got)
			}
			if err != nil {
				fail(i, "%v\n  %s", err, q.sql)
			}
			r.sampled++
			r.sampleBytes += rep.size
			r.sampleRows += len(got)
			for _, row := range got {
				r.sampleCells += len(row)
			}
		}
	}
	return r, nil
}

// measureSetup times one more set-up: a daemon started and stopped
// for this alone.
func measureSetup(ctx context.Context, bin string, s spec, sc scale) (time.Duration, error) {
	d, err := spawn(ctx, bin, s.daemonFlags(sc), 1)
	if err != nil {
		return 0, err
	}
	d.stop()
	return d.setup, nil
}

// endToEnd folds a run's rounds into the end-to-end metrics. Timings
// pool over all rounds; memory, of which each round has one value,
// and set-up, which setups holds for every daemon the run started,
// report their median.
func endToEnd(rs []round, setups []float64) metrics {
	var (
		lat       []time.Duration
		rss       []float64
		wall, cpu float64
		attempted int
		ok        int
		bytes     int
		cells     int
	)
	for _, r := range rs {
		lat = append(lat, r.latencies...)
		rss = append(rss, r.rssMiB)
		wall += r.wall.Seconds()
		cpu += r.cpuSec
		attempted += r.attempted
		ok += r.attempted - r.failed
		bytes += r.sampleBytes
		cells += r.sampleCells
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	n := float64(attempted)
	m := metrics{}
	m.set("setup_s", median(setups), "s")
	m.set("throughput_qps", float64(ok)/wall, "1/s")
	m.set("latency_p50_ms", ms(percentile(lat, 0.50)), "ms")
	m.set("latency_p95_ms", ms(percentile(lat, 0.95)), "ms")
	m.set("cpu_ms_per_query", cpu*1000/n, "ms")
	m.set("rss_peak_mb", median(rss), "MiB")
	m.set("resp_bytes_per_cell", ratio(float64(bytes), float64(cells)), "B")
	return m
}

// counts are the per-layer metrics a daemon round yields from outside
// the program: /stats deltas over the window and the clients' tallies.
// Rates are window deltas per attempted query; levels and one-off
// events (entries, bytes, index builds) are read at window end.
func counts(r round, m metrics) {
	n := float64(r.attempted)
	sb, sa := r.before.Server, r.after.Server
	cb, ca := r.before.Cache, r.after.Cache
	served := float64(sa.TotalQueries - sb.TotalQueries)
	m.set("server.plans_per_query", ratio(float64(sa.PlansExecuted-sb.PlansExecuted), served), "ratio")
	m.set("server.batched_frac", ratio(float64(sa.BatchedQueries-sb.BatchedQueries), served), "ratio")
	m.set("server.rate_bypass_frac", ratio(float64(sa.RateBypass-sb.RateBypass), served), "ratio")
	m.set("server.overload_frac", float64(sa.Overloads-sb.Overloads)/n, "ratio")
	m.set("server.rows_per_query", ratio(float64(r.sampleRows), float64(r.sampled)), "count")
	m.set("server.resp_kb_per_query", float64(r.respBytes)/1024/n, "KiB")

	lat := append([]time.Duration(nil), r.latencies...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	m.set("client.latency_p99_ms", ms(percentile(lat, 0.99)), "ms")
	m.set("client.latency_max_ms", ms(lat[len(lat)-1]), "ms")
	m.set("client.warmup_s", r.warmup.Seconds(), "s")

	m.set("htcache.entries_end", float64(ca.Entries), "count")
	m.set("htcache.bytes_end_mb", float64(ca.Bytes)/(1<<20), "MiB")
	m.set("htcache.hits_per_query", float64(ca.Hits-cb.Hits)/n, "ratio")
	m.set("htcache.registered_per_query", float64(ca.Registered-cb.Registered)/n, "ratio")
	m.set("htcache.evictions_per_query", float64(ca.Evictions-cb.Evictions)/n, "ratio")
	m.set("htcache.widen_published", float64(ca.WidenPublished-cb.WidenPublished), "count")
	m.set("htcache.widen_lost", float64(ca.WidenLost-cb.WidenLost), "count")
	m.set("htcache.probe_chain_len", ratio(float64(ca.ProbeChainNodes-cb.ProbeChainNodes), float64(ca.Probes-cb.Probes)), "ratio")
	m.set("htcache.index_builds", float64(ca.Index.Builds), "count")
	m.set("htcache.index_range_probes", float64(ca.Index.RangeProbes-cb.Index.RangeProbes), "count")
}

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile reads the p-quantile off sorted samples (nearest rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func meanDuration(v []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range v {
		sum += d
	}
	return sum / time.Duration(len(v))
}
