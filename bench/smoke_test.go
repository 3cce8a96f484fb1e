package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSmoke runs every workload end to end and traced at -quick scale
// (SF 0.005, 60 queries per workload) against a real hashstashd and
// checks that each metric BENCHMARK.json names is printed with its
// unit, is finite, and that nothing failed. Run it with
// "cd bench && go test ./..."; the benchmark is a module of its own, so
// the repository's "go test ./..." does not reach it.
func TestSmoke(t *testing.T) {
	const root = ".."
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-quick", "-root", root}, &out); code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}

	// The "workload metric value unit" lines.
	printed := map[string]string{} // "workload metric" -> unit
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%q: value is not a finite number", line)
		}
		printed[f[0]+" "+f[1]] = f[3]
	}

	path := filepath.Join(t.TempDir(), "run.txt")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := readDocument(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for _, wl := range bf.Workloads {
		w, ok := doc.Workloads[wl.Name]
		if !ok {
			t.Errorf("workload %s missing from the document", wl.Name)
			continue
		}
		for _, r := range []result{w.EndToEnd, w.PerLayer} {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", wl.Name, r.Correct, r.Attempted, r.Failed)
			}
		}
		check := func(kind string, got metrics, name, unit string) {
			m, ok := got[name]
			switch {
			case !ok:
				t.Errorf("%s: %s metric %s missing", wl.Name, kind, name)
			case m.Unit != unit || printed[wl.Name+" "+name] != unit:
				t.Errorf("%s %s: unit %q (printed %q), BENCHMARK.json says %q", wl.Name, name, m.Unit, printed[wl.Name+" "+name], unit)
			}
		}
		for _, m := range bf.EndToEnd {
			check("end-to-end", w.EndToEnd.Metrics, m.Name, m.Unit)
		}
		for _, m := range bf.PerLayer {
			check("per-layer", w.PerLayer.Metrics, m.Name, m.Unit)
		}
		if n, want := len(w.EndToEnd.Metrics), len(bf.EndToEnd); n != want {
			t.Errorf("%s: %d end-to-end metrics reported, BENCHMARK.json names %d", wl.Name, n, want)
		}
		if n, want := len(w.PerLayer.Metrics), len(bf.PerLayer); n != want {
			t.Errorf("%s: %d per-layer metrics reported, BENCHMARK.json names %d", wl.Name, n, want)
		}
	}

	// A run compared with itself breaches no bound.
	var table bytes.Buffer
	if code := run([]string{"-compare", "-root", root, path, path}, &table); code != 0 {
		t.Errorf("-compare of a run with itself: exit code %d\n%s", code, table.String())
	}

	// The same numbers with one metric made worse than its bound do.
	worse, err := readDocument(path)
	if err != nil {
		t.Fatal(err)
	}
	p50 := worse.Workloads["export"].EndToEnd.Metrics["latency_p50_ms"]
	p50.Value *= 1.5
	worse.Workloads["export"].EndToEnd.Metrics["latency_p50_ms"] = p50
	raw, err := json.Marshal(worse)
	if err != nil {
		t.Fatal(err)
	}
	worsePath := filepath.Join(t.TempDir(), "worse.txt")
	if err := os.WriteFile(worsePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	table.Reset()
	if code := run([]string{"-compare", "-root", root, path, worsePath}, &table); code == 0 || !strings.Contains(table.String(), "BREACH") {
		t.Errorf("-compare missed a 50 %% worse p50: exit code %d\n%s", code, table.String())
	}
}
