package experiments

import (
	"strings"
	"testing"

	"hashstash/internal/costmodel"
	"hashstash/internal/optimizer"
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(0.002)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestExp1SmallRun(t *testing.T) {
	env := testEnv(t)
	res, err := Exp1(env, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.NoReuseTime <= 0 || row.HashStashTime <= 0 || row.MaterializedTime <= 0 {
			t.Errorf("%v: non-positive times %+v", row.Level, row)
		}
	}
	// High-reuse workload: HashStash must register hash tables and
	// reuse them. (Wall-clock speed-ups are the benchmark's job, not a
	// test's: they flip on a loaded machine.)
	high := res.Rows[2]
	if high.HashStashBytes <= 0 {
		t.Error("high-reuse HashStash cached no hash tables")
	}
	if high.HashStashHitRatio <= 0 {
		t.Error("high-reuse HashStash never reused a hash table")
	}
	text := res.Format()
	for _, want := range []string{"Figure 7a", "Figure 7b", "high", "HashStash"} {
		if !strings.Contains(text, want) {
			t.Errorf("format missing %q", want)
		}
	}
}

func TestExp2aTrace(t *testing.T) {
	env := testEnv(t)
	res, err := Exp2a(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The roll-up must reuse the cached aggregate without re-running
	// joins: scheme XXXXS (Table 8b's signature result).
	rollup := res.Rows[5]
	if rollup.ReuseScheme != "XXXXS" {
		t.Errorf("roll-up scheme = %q, want XXXXS", rollup.ReuseScheme)
	}
	// Every follow-up decision string has 5 characters from {N,S,X}.
	for _, row := range res.Rows {
		if len(row.ReuseScheme) != 5 {
			t.Errorf("%v scheme %q", row.Kind, row.ReuseScheme)
		}
		for _, c := range row.ReuseScheme {
			if c != 'N' && c != 'S' && c != 'X' {
				t.Errorf("%v scheme %q has bad char %c", row.Kind, row.ReuseScheme, c)
			}
		}
	}
	if !strings.Contains(res.Format(), "scheme") {
		t.Error("format missing scheme column")
	}
}

func TestDecisionString(t *testing.T) {
	ds := DecisionString([]optimizer.Decision{
		{Operator: "build(orders)", Action: 'N'},
		{Operator: "build(part)", Action: 'S'},
		{Operator: "build(customer+orders)", Action: 'S'},
		{Operator: "agg", Action: 'S'},
	})
	// orders appears twice; the last write wins (S via the multi-table
	// build). part=S, customer=S, supplier untouched=X, agg=S.
	if ds != "SSSXS" {
		t.Errorf("DecisionString = %q", ds)
	}
}

func TestExp2bSweep(t *testing.T) {
	res, err := Exp2b(4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 11 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].Contr != 1.0 || res.Points[len(res.Points)-1].Contr != 0 {
		t.Errorf("sweep endpoints: %v .. %v", res.Points[0].Contr, res.Points[len(res.Points)-1].Contr)
	}
	// At 100% contribution the model must reuse; the paper's crossover
	// puts fresh builds ahead at low contribution.
	if !res.Points[0].CostPicksReuse {
		t.Error("cost model refused reuse at contr=100%")
	}
	if res.Points[len(res.Points)-1].CostPicksReuse {
		t.Error("cost model reused at contr=0%")
	}
	if !strings.Contains(res.Format(), "contr") {
		t.Error("format broken")
	}
}

func TestExp2cSweep(t *testing.T) {
	res, err := Exp2c(20000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 11 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if !res.Points[0].CostPicksReuse {
		t.Error("cost model refused agg reuse at contr=100%")
	}
}

func TestExp3Accuracy(t *testing.T) {
	env := testEnv(t)
	res, err := Exp3(env, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("no groups")
	}
	// Whether estimates rank like measured runtimes depends on the
	// machine's load; the test checks every alternative got both.
	for _, g := range res.Groups {
		if len(g.Actual) == 0 || len(g.Actual) != len(g.Estimated) {
			t.Errorf("group %s: %d actual vs %d estimated", g.Tables, len(g.Actual), len(g.Estimated))
		}
	}
	if !strings.Contains(res.Format(), "rank-agree") {
		t.Error("format broken")
	}
}

func TestExp4Batches(t *testing.T) {
	env := testEnv(t)
	res, err := Exp4(env, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if row.SingleNoReuse <= 0 || row.SharedWithReuse <= 0 {
			t.Errorf("batch %d: non-positive times", row.BatchSize)
		}
		if row.SharedPlansAvg <= 0 || row.SharedPlansAvg > float64(row.BatchSize) {
			t.Errorf("batch %d: avg plans %.1f", row.BatchSize, row.SharedPlansAvg)
		}
	}
	if !strings.Contains(res.Format(), "batch") {
		t.Error("format broken")
	}
}

func TestExp5GC(t *testing.T) {
	env := testEnv(t)
	res, err := Exp5(env, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.PeakBytes <= 0 {
			t.Errorf("%v: peak bytes %d", row.Level, row.PeakBytes)
		}
	}
	// Medium/high runs under a 20% budget must actually evict.
	if res.Rows[1].Evictions20 == 0 && res.Rows[2].Evictions20 == 0 {
		t.Error("no evictions under 20% budget")
	}
	if !strings.Contains(res.Format(), "GC@20%") {
		t.Error("format broken")
	}
}

func TestFig3Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("micro-benchmark")
	}
	res, err := Fig3(costmodel.CalibrateOptions{
		Sizes:       []int64{1 << 10, 64 << 10},
		Widths:      []int{8, 64},
		OpsPerPoint: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	text := res.Format()
	for _, want := range []string{"3a insert", "3b probe", "3c update", "scan model"} {
		if !strings.Contains(text, want) {
			t.Errorf("format missing %q", want)
		}
	}
}

func TestAblation(t *testing.T) {
	env := testEnv(t)
	res, err := Ablation(env, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The last two rows are the eviction-policy ablation at half the
	// working set; both still run the full configuration.
	for _, row := range res.Rows[4:] {
		if !strings.Contains(row.Name, "eviction") {
			t.Errorf("unexpected policy row %q", row.Name)
		}
		if row.HitRatio <= 0 {
			t.Errorf("policy row %q never reused", row.Name)
		}
	}
	if res.Rows[0].Speedup != 0 {
		t.Errorf("baseline speedup = %f", res.Rows[0].Speedup)
	}
	// The no-reuse baseline never reuses; full HashStash does on the
	// high-reuse workload (its speed-up is wall-clock, left to the
	// benchmark).
	if res.Rows[0].HitRatio != 0 {
		t.Errorf("no-reuse baseline hit ratio = %.2f", res.Rows[0].HitRatio)
	}
	if res.Rows[3].HitRatio <= 0 {
		t.Error("full HashStash never reused a hash table")
	}
	if !strings.Contains(res.Format(), "Ablation") {
		t.Error("format broken")
	}
}
