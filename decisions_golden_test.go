package hashstash

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"hashstash/internal/workload"
)

var updateDecisions = flag.Bool("update-decisions", false, "rewrite testdata/decisions.golden")

const decisionsGolden = "testdata/decisions.golden"

// decisionSessions are the fixed exploration sessions the decision
// golden replays: one per reuse level.
func decisionSessions() []workload.Step {
	var steps []workload.Step
	for i, level := range []workload.Level{workload.High, workload.Medium, workload.Low} {
		steps = append(steps, workload.Generate(workload.Config{Level: level, N: 32, Seed: uint64(i + 1)})...)
	}
	return steps
}

// TestDecisionGolden replays fixed sessions serially under every reuse
// configuration and compares each query's reuse decisions (operator,
// action, mode and reused entry), its result row count and the source
// rows its pipelines streamed with testdata/decisions.golden. A
// refactor of matching, classification, costing or execution must
// leave the file unchanged; re-record it with -update-decisions only
// for an intended change of plan choice.
func TestDecisionGolden(t *testing.T) {
	serial := WithTuning(Tuning{Parallelism: 1})
	configs := []struct {
		name string
		opts []Option
	}{
		{"cost-model", nil},
		{"always-reuse", []Option{WithStrategy(AlwaysReuse)}},
		{"no-partial", []Option{WithAblations(Ablations{NoPartialReuse: true})}},
		{"no-overlapping", []Option{WithAblations(Ablations{NoOverlappingReuse: true})}},
		{"materialized", []Option{WithStrategy(Materialized)}},
		{"cold-tier", []Option{WithTuning(Tuning{CacheBudget: 96 << 10, ColdTierBudget: 4 << 20})}},
	}
	steps := decisionSessions()
	var b strings.Builder
	for _, cfg := range configs {
		db := openTPCH(t, append(cfg.opts, serial)...)
		for i, st := range steps {
			res, err := db.ExecParsed(context.Background(), st.Query)
			if err != nil {
				t.Fatalf("%s query %d: %v", cfg.name, i, err)
			}
			fmt.Fprintf(&b, "%s %d", cfg.name, i)
			for _, d := range res.Decisions {
				fmt.Fprintf(&b, " %s/%c/%s/%d", d.Operator, d.Action, d.Mode, d.EntryID)
			}
			fmt.Fprintf(&b, " rows=%d in=%d", len(res.Rows), res.RowsIn)
			b.WriteByte('\n')
		}
		if cfg.name == "cold-tier" {
			tier := db.CacheStats().Tiering
			t.Logf("cold-tier: %d demotions, %d revivals", tier.Demotions, tier.Revivals)
			if tier.Revivals == 0 {
				t.Error("cold-tier: no cold entry was revived")
			}
		}
	}
	got := b.String()
	if *updateDecisions {
		if err := os.WriteFile(decisionsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(decisionsGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update-decisions)", err)
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("decisions differ at line %d:\nwant %s\ngot  %s", i+1, w, g)
		}
	}
}
