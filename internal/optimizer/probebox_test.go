package optimizer

import (
	"fmt"
	"testing"

	"hashstash/internal/expr"
	"hashstash/internal/htcache"
	"hashstash/internal/storage"
	"hashstash/internal/workload"
)

// TestDecisionsIndependentOfProbeBox: the cache's candidate index may
// drop only candidates no reuse case can accept — disjoint ones, and
// ones whose shape (layout, constrained columns) rules out every case —
// so replaying a trace with every probe forced onto the full-bucket path
// (no request box, no needed columns) must reproduce every query's reuse
// decisions.
func TestDecisionsIndependentOfProbeBox(t *testing.T) {
	env := newEnv(t, Options{})
	var explore []workload.Step
	for _, level := range []workload.Level{workload.High, workload.Low} {
		explore = append(explore, workload.Generate(workload.Config{Level: level, N: 40, Seed: 11})...)
	}
	traces := []struct {
		name  string
		steps []workload.Step
	}{
		{"partitioned", workload.GeneratePartitioned(workload.PartitionedConfig{N: 120, CustKeys: 30, Seed: 5})},
		{"partitioned-wide", workload.GeneratePartitioned(workload.PartitionedConfig{N: 500, CustKeys: 250, Seed: 9})},
		{"skewed", workload.GenerateSkewed(workload.SkewConfig{N: 160, Shapes: 8, Seed: 4})},
		{"explore", explore},
	}
	// replay returns each query's decisions and how many reused a table.
	replay := func(steps []workload.Step) ([]string, int) {
		opt := New(env.cat, htcache.New(0), nil, Options{})
		out, reused := make([]string, len(steps)), 0
		for i, st := range steps {
			res, err := opt.Run(st.Query)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			out[i] = fmt.Sprintf("%+v", res.Decisions)
			for _, d := range res.Decisions {
				if d.Action == 'S' {
					reused++
					break
				}
			}
		}
		return out, reused
	}
	orig := lookupProbe
	defer func() { lookupProbe = orig }()
	full := func(expr.Box, []storage.ColRef) (expr.Box, []storage.ColRef) { return nil, nil }
	for _, tr := range traces {
		indexed, reused := replay(tr.steps)
		lookupProbe = full
		unfiltered, _ := replay(tr.steps)
		lookupProbe = orig
		for i := range indexed {
			if indexed[i] != unfiltered[i] {
				t.Errorf("%s query %d: decisions %s with the request box, %s on the full bucket", tr.name, i, indexed[i], unfiltered[i])
			}
		}
		t.Logf("%s: %d of %d queries reused a table", tr.name, reused, len(indexed))
		if reused == 0 {
			t.Errorf("%s: no query reused anything; the comparison proves nothing", tr.name)
		}
	}
}
