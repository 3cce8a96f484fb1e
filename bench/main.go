// Command bench is the repository's benchmark: it builds and spawns the
// real hashstashd, drives it over loopback HTTP in a closed loop,
// checks the answers against an in-process reference engine and prints
// end-to-end metrics; a separate traced run gives per-layer metrics by
// timing calls into each layer's public functions. See README.md.
//
//	bash bench/run.sh --workload explore --seed 1 --seconds 18 --trace 0
//	cd bench && go run . -seed 1            # all workloads, both runs
//	cd bench && go run . -compare a.txt b.txt
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runTimeout bounds one workload's run; the driver allows 180 s.
const runTimeout = 170 * time.Second

// result is what one run of one workload reports; its JSON form is the
// last line the driver reads.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	note      string  // first failure, for the log
}

// header records what a set of numbers was measured on.
type header struct {
	NumCPU      int                 `json:"nproc"`
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	GoVersion   string              `json:"go_version"`
	Commit      string              `json:"commit"`
	Seed        uint64              `json:"seed"`
	Seconds     int                 `json:"seconds"`
	SF          float64             `json:"sf"`
	DaemonFlags map[string][]string `json:"daemon_flags"`
}

// document is what a run over all workloads prints last and what
// -compare reads.
type document struct {
	Header    header                  `json:"header"`
	Workloads map[string]workloadRuns `json:"workloads"`
}

// workloadRuns are the two runs of one workload.
type workloadRuns struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload and print the driver's result line (default: all workloads, both runs)")
		seed         = fs.Uint64("seed", 1, "trace-generation seed")
		seconds      = fs.Int("seconds", 18, "run length: sets how many queries a workload replays")
		traced       = fs.Int("trace", 0, "with -workload: 0 = end-to-end run, 1 = traced run (per-layer metrics)")
		quick        = fs.Bool("quick", false, "smoke scale: SF 0.005 and 60 queries per workload")
		root         = fs.String("root", "..", "root of the hashstash checkout")
		compare      = fs.Bool("compare", false, "compare two saved outputs: -compare a.txt b.txt")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two files"))
		}
		breached, err := compareFiles(stdout, *root, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if breached {
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fail(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	sc := scale{sf: fullSF, seconds: *seconds}
	if *quick {
		sc = scale{sf: quickSF, seconds: *seconds, quick: true}
	}
	bin, err := buildDaemon(*root)
	if err != nil {
		return fail(err)
	}

	if *workloadName != "" {
		s, err := specByName(*workloadName)
		if err != nil {
			return fail(err)
		}
		res, err := runWorkload(bin, *root, s, sc, *seed, *traced == 1, stdout)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			return fail(fmt.Errorf("%d of %d failed: %s", res.Failed, res.Attempted, res.note))
		}
		return 0
	}

	doc := document{Header: newHeader(*root, sc, *seed), Workloads: map[string]workloadRuns{}}
	printHeader(stdout, doc.Header)
	failed := 0
	for _, s := range specs {
		e2e, err := runWorkload(bin, *root, s, sc, *seed, false, stdout)
		if err != nil {
			return fail(err)
		}
		layers, err := runWorkload(bin, *root, s, sc, *seed, true, stdout)
		if err != nil {
			return fail(err)
		}
		doc.Workloads[s.name] = workloadRuns{EndToEnd: e2e, PerLayer: layers}
		failed += e2e.Failed + layers.Failed
	}
	line, err := json.Marshal(doc)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if failed > 0 {
		return fail(fmt.Errorf("%d operations failed", failed))
	}
	return 0
}

// runWorkload makes one run of one workload, end-to-end or traced, and
// prints each metric as "workload metric value unit".
func runWorkload(bin, root string, s spec, sc scale, seed uint64, traced bool, stdout io.Writer) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	ref, err := newReference(sc.sf)
	if err != nil {
		return result{}, err
	}
	var res result
	if traced {
		res, err = runTraced(ctx, bin, root, s, sc, seed, ref, stdout)
	} else {
		res, err = runEndToEnd(ctx, bin, s, sc, seed, ref, stdout)
	}
	if err != nil {
		return res, err
	}
	res.Correct = res.Failed == 0

	names := make([]string, 0, len(res.Metrics))
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return res, fmt.Errorf("%s %s is not finite", s.name, name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "%s %s %v %s\n", s.name, name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	return res, nil
}

// runEndToEnd is the untraced run: three daemon rounds, each on its own
// trace, and two more set-ups.
func runEndToEnd(ctx context.Context, bin string, s spec, sc scale, seed uint64, ref *reference, stdout io.Writer) (result, error) {
	var res result
	var rs []round
	var setupTimes []float64
	for r := 0; r < s.rounds; r++ {
		trace, err := s.trace(seed, r, sc)
		if err != nil {
			return res, err
		}
		rd, err := runRound(ctx, bin, s, sc, trace, ref)
		if err != nil {
			return res, fmt.Errorf("%s round %d: %w", s.name, r, err)
		}
		fmt.Fprintf(stdout, "# %s round %d: %d queries in %.2f s, %.1f q/s, %.3f ms CPU per query, set-up %.2f s, warm-up %.2f s\n",
			s.name, r, rd.attempted, rd.wall.Seconds(), float64(rd.attempted)/rd.wall.Seconds(),
			rd.cpuSec*1000/float64(rd.attempted), rd.setup.Seconds(), rd.warmup.Seconds())
		rs = append(rs, rd)
		setupTimes = append(setupTimes, rd.setup.Seconds())
		res.Attempted += rd.attempted
		res.Failed += rd.failed
		if res.note == "" {
			res.note = rd.firstFail
		}
	}
	for len(setupTimes) < setups {
		setup, err := measureSetup(ctx, bin, s, sc)
		if err != nil {
			return res, fmt.Errorf("%s set-up: %w", s.name, err)
		}
		setupTimes = append(setupTimes, setup.Seconds())
	}
	res.Metrics = endToEnd(rs, setupTimes)
	fmt.Fprintf(stdout, "# %s end-to-end: %d rounds, %d clients, %d latency samples, every %dth answer verified\n",
		s.name, s.rounds, s.clients, res.Attempted, verifyEvery)
	return res, nil
}

// runTraced is the traced run: one daemon round for the counts, the
// lockstep replay for times and allocations, and the A/B ratios.
func runTraced(ctx context.Context, bin, root string, s spec, sc scale, seed uint64, ref *reference, stdout io.Writer) (result, error) {
	res := result{Metrics: metrics{}}
	trace, err := s.trace(seed, 0, sc)
	if err != nil {
		return res, err
	}
	rd, err := runRound(ctx, bin, s, sc, trace, ref)
	if err != nil {
		return res, fmt.Errorf("%s traced daemon round: %w", s.name, err)
	}
	counts(rd, res.Metrics)
	e2eLat := append(make([]time.Duration, warmCount(len(trace))), rd.latencies...)
	prefix := trace[:lockstepCount(len(trace))]
	ls, err := runLockstep(s, sc, prefix, e2eLat, res.Metrics)
	if err != nil {
		return res, fmt.Errorf("%s lockstep replay: %w", s.name, err)
	}
	if err := abRatios(s, sc, trace, res.Metrics); err != nil {
		return res, fmt.Errorf("%s A/B: %w", s.name, err)
	}
	if err := writeSpans(filepath.Join(root, "bench", "out", "trace-"+s.name+".jsonl"), ls.spans); err != nil {
		return res, err
	}
	res.Attempted = rd.attempted + len(prefix)
	res.Failed = rd.failed + ls.failed
	res.note = rd.firstFail
	if res.note == "" {
		res.note = ls.failNote
	}
	fmt.Fprintf(stdout, "# %s traced: counts over %d daemon queries, %d queries replayed at 4 depths, A/B over %d\n",
		s.name, rd.attempted, len(prefix), abCount(len(trace)))
	return res, nil
}

func newHeader(root string, sc scale, seed uint64) header {
	h := header{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      "unknown",
		Seed:        seed,
		Seconds:     sc.seconds,
		SF:          sc.sf,
		DaemonFlags: map[string][]string{},
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil { // not a git checkout: stays unknown
		h.Commit = strings.TrimSpace(string(out))
	}
	for _, s := range specs {
		h.DaemonFlags[s.name] = s.daemonFlags(sc)
	}
	return h
}

func printHeader(w io.Writer, h header) {
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d sf=%v\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Seed, h.Seconds, h.SF)
	for _, s := range specs {
		fmt.Fprintf(w, "# %s: hashstashd -listen 127.0.0.1:0 %s\n", s.name, strings.Join(h.DaemonFlags[s.name], " "))
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark itself
// reads: the metric names, directions and bounds.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var b benchmarkFile
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(raw, &b)
}

// readDocument reads the JSON document a run over all workloads
// printed as its last line.
func readDocument(path string) (document, error) {
	var doc document
	f, err := os.Open(path)
	if err != nil {
		return doc, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return doc, err
	}
	if err := json.Unmarshal([]byte(last), &doc); err != nil {
		return doc, fmt.Errorf("%s: last line is not a run's document: %w", path, err)
	}
	return doc, nil
}

// compareFiles prints, per workload and end-to-end metric, how much
// worse b is than a against the metric's bound in BENCHMARK.json, and
// reports whether any bound was breached.
func compareFiles(w io.Writer, root, pathA, pathB string) (breached bool, err error) {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return false, err
	}
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w, "# a:", pathA)
	printHeader(w, a.Header)
	fmt.Fprintln(w, "# b:", pathB)
	printHeader(w, b.Header)
	fmt.Fprintf(w, "%-10s %-18s %12s %12s %9s %7s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, wl := range bf.Workloads {
		for _, em := range bf.EndToEnd {
			ma, okA := a.Workloads[wl.Name].EndToEnd.Metrics[em.Name]
			mb, okB := b.Workloads[wl.Name].EndToEnd.Metrics[em.Name]
			if !okA || !okB {
				return false, fmt.Errorf("%s %s: missing from one side", wl.Name, em.Name)
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if em.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > em.Bound {
				verdict = "  BREACH"
				breached = true
			}
			fmt.Fprintf(w, "%-10s %-18s %12.4f %12.4f %+8.1f%% %6.1f%%%s\n",
				wl.Name, em.Name, ma.Value, mb.Value, 100*worse, 100*em.Bound, verdict)
		}
	}
	return breached, nil
}
