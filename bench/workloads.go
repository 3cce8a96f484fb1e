package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"hashstash"
	"hashstash/internal/workload"
)

// scale fixes the data size and the amount of work of a run. A run is
// fixed work, not fixed time: -seconds sets how many queries each
// workload replays (perSecond is calibrated so that the measured
// windows add up to about -seconds on the 2-core reference box), so a
// faster engine finishes sooner instead of running deeper into a trace
// whose cost per query depends on how full the cache is.
type scale struct {
	sf      float64
	seconds int
	quick   bool
}

const (
	fullSF  = 0.05
	quickSF = 0.005
	// setups is how many daemons a run starts at least, so that
	// setup_s is a median of five: a workload with fewer rounds starts
	// and stops the rest without a trace.
	setups = 5
	// maxRounds bounds spec.rounds; round seeds are derived with it.
	maxRounds = 16
	// warmFrac of each trace is replayed untimed before the window.
	warmFrac = 0.05
	// quickQueries is the per-round trace length of -quick.
	quickQueries = 20
)

// spec is one workload: how the daemon is started, how many clients
// drive it and how the trace is generated. The names are fixed; later
// issues cite them.
type spec struct {
	name string
	// clients is the closed-loop client count (one connection each).
	clients int
	// rounds is how many times a run sets the daemon up and replays a
	// trace of its own against it; the metrics pool over the rounds.
	rounds int
	// perSecond is queries per second of -seconds, all rounds together.
	perSecond float64
	// cacheBytes is the daemon's -cache at fullSF; it scales with sf.
	cacheBytes int64
	shards     int
	gen        func(seed uint64, n int, sc scale) []workload.Step
}

// specs are the workloads; BENCHMARK.json and README.md say why each
// exists.
var specs = []spec{
	{
		// The paper's Exp 1: sessions of 64 queries, the reuse level
		// cycling high/medium/low, a new seed per session; cache fits.
		name:       "explore",
		clients:    1,
		rounds:     3,
		perSecond:  80,
		cacheBytes: 256 << 20,
		shards:     1,
		gen: func(seed uint64, n int, _ scale) []workload.Step {
			levels := []workload.Level{workload.High, workload.Medium, workload.Low}
			var out []workload.Step
			for s := 0; len(out) < n; s++ {
				out = append(out, workload.Generate(workload.Config{
					Level: levels[s%len(levels)], N: 64, Seed: seed*1_000_003 + uint64(s) + 1,
				})...)
			}
			return out[:n]
		},
	},
	{
		// Recurring panels plus one-shot pollution under a budget below
		// the working set. What a trace costs depends on which panels
		// the eviction policy happens to keep, and that state persists
		// for the daemon's lifetime: CPU time per query differs up to
		// threefold between traces of one seed. Nine short rounds
		// average nine such states where three long ones average three.
		name:       "dashboard",
		clients:    1,
		rounds:     9,
		perSecond:  185,
		cacheBytes: 12 << 20,
		shards:     1,
		gen:        dashboardTrace,
	},
	{
		// 1 % range scans, every fourth a top-100: big answers, cheap
		// execution, no hash table to reuse.
		name:       "export",
		clients:    2,
		rounds:     3,
		perSecond:  640,
		cacheBytes: 256 << 20,
		shards:     1,
		gen: func(seed uint64, n int, _ scale) []workload.Step {
			return workload.GenerateRange(workload.RangeConfig{N: n, Selectivity: 0.01, TopK: 100, Seed: seed})
		},
	},
	{
		// Two shards: 75 % single-shard point lookups, 25 % scatter-gather.
		name:       "sharded",
		clients:    2,
		rounds:     3,
		perSecond:  450,
		cacheBytes: 256 << 20,
		shards:     2,
		gen: func(seed uint64, n int, sc scale) []workload.Step {
			return workload.GeneratePartitioned(workload.PartitionedConfig{
				N: n, CrossShardFrac: 0.25, CustKeys: int64(150000 * sc.sf), Seed: seed,
			})
		},
	},
}

// dashboardTrace draws a seed's traffic over a fixed set of panels. A
// dashboard's panels are part of the deployment, not of the traffic:
// the seed decides which panel is asked when, and the one-shot queries
// in between, but the 48 recurring shapes are the ones the generator
// builds from its default seed. Left to the seed, the panels' sizes set
// what a fresh build costs, and p95 latency spread 13 % over ten seeds
// where it now spreads 3 %.
func dashboardTrace(seed uint64, n int, _ scale) []workload.Step {
	cfg := workload.SkewConfig{Shapes: 48, S: 1.1, OneShotFrac: 0.2}
	panels := map[int]*hashstash.Query{}
	fixed := cfg
	fixed.N = 8192 // long enough for the rarest of 48 ranks to appear
	for _, st := range workload.GenerateSkewed(fixed) {
		if st.Shape >= 0 && panels[st.Shape] == nil {
			panels[st.Shape] = st.Query
		}
	}
	cfg.N, cfg.Seed = n, seed
	steps := workload.GenerateSkewed(cfg)
	for i, st := range steps {
		if q := panels[st.Shape]; q != nil {
			steps[i].Query = q
		}
	}
	return steps
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// queriesPerRound is the trace length of one round, warm-up included.
func (s spec) queriesPerRound(sc scale) int {
	if sc.quick {
		return quickQueries
	}
	return int(math.Round(s.perSecond * float64(sc.seconds) / float64(s.rounds)))
}

// cache is the daemon's cache budget at this scale.
func (s spec) cache(sc scale) int64 {
	return int64(float64(s.cacheBytes) * sc.sf / fullSF)
}

// daemonFlags are the exact hashstashd flags of the workload (the
// listen address is added at spawn).
func (s spec) daemonFlags(sc scale) []string {
	flags := []string{
		"-sf", strconv.FormatFloat(sc.sf, 'f', -1, 64),
		"-cache", strconv.FormatInt(s.cache(sc), 10),
	}
	if s.shards > 1 {
		flags = append(flags, "-shards", strconv.Itoa(s.shards))
	}
	return flags
}

// engineOptions configure an in-process engine the way daemonFlags
// configure hashstashd (cmd/hashstashd/main.go).
func (s spec) engineOptions(sc scale, shards int) []hashstash.Option {
	opts := []hashstash.Option{hashstash.WithTuning(hashstash.Tuning{CacheBudget: s.cache(sc)})}
	if shards > 1 {
		opts = append(opts,
			hashstash.WithTuning(hashstash.Tuning{Shards: shards}),
			hashstash.WithPartitionKey("customer", "c_custkey"),
			hashstash.WithPartitionKey("orders", "o_custkey"),
			hashstash.WithPartitionKey("lineitem", "l_orderkey"))
	}
	return opts
}

// query is one trace entry as the daemon sees it: SQL text only.
type query struct {
	plan *hashstash.Query
	sql  string
	body []byte // the POST /query request body
}

// trace generates round r's queries for a seed. Each round draws its
// own trace so that one run covers three traces' worth of inputs.
func (s spec) trace(seed uint64, r int, sc scale) ([]query, error) {
	steps := s.gen(seed*maxRounds+uint64(r)+1, s.queriesPerRound(sc), sc)
	out := make([]query, len(steps))
	for i, st := range steps {
		sql, err := renderSQL(st.Query)
		if err != nil {
			return nil, fmt.Errorf("%s query %d: %w", s.name, i, err)
		}
		body, err := json.Marshal(struct {
			SQL string `json:"sql"`
		}{sql})
		if err != nil {
			return nil, err
		}
		out[i] = query{plan: st.Query, sql: sql, body: body}
	}
	return out, nil
}

// warmCount is the untimed warm-up prefix of a trace of n queries.
func warmCount(n int) int {
	w := int(math.Ceil(warmFrac * float64(n)))
	if w >= n {
		w = n - 1
	}
	return w
}
