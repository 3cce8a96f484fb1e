package workload

import (
	"testing"

	"hashstash/internal/catalog"
	"hashstash/internal/tpch"
)

func TestGenerateShape(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{SF: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	for _, tbl := range db.Tables() {
		cat.Register(tbl)
	}
	for _, level := range []Level{Low, Medium, High} {
		steps := Generate(Config{Level: level, N: 64})
		if len(steps) != 64 {
			t.Fatalf("%v: %d steps", level, len(steps))
		}
		if steps[0].Kind != Seed {
			t.Errorf("%v: first step is %v", level, steps[0].Kind)
		}
		for i, s := range steps {
			if err := s.Query.Validate(cat); err != nil {
				t.Fatalf("%v step %d (%v): %v", level, i, s.Kind, err)
			}
			if s.Lo >= s.Hi {
				t.Fatalf("%v step %d: window [%d, %d)", level, i, s.Lo, s.Hi)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Level: Medium, N: 32})
	b := Generate(Config{Level: Medium, N: 32})
	for i := range a {
		if a[i].Lo != b[i].Lo || a[i].Hi != b[i].Hi || a[i].Kind != b[i].Kind {
			t.Fatalf("step %d differs", i)
		}
	}
	c := Generate(Config{Level: Medium, N: 32, Seed: 99})
	same := true
	for i := range a {
		if a[i].Lo != c[i].Lo || a[i].Hi != c[i].Hi {
			same = false
			break
		}
	}
	if same {
		t.Error("different seed produced identical windows")
	}
}

func TestOverlapOrdering(t *testing.T) {
	low := MeasureOverlap(Generate(Config{Level: Low, N: 64}))
	med := MeasureOverlap(Generate(Config{Level: Medium, N: 64}))
	high := MeasureOverlap(Generate(Config{Level: High, N: 64}))
	t.Logf("overlaps: low=%.3f med=%.3f high=%.3f", low, med, high)
	if !(low < med && med < high) {
		t.Errorf("overlap ordering violated: low=%.3f med=%.3f high=%.3f", low, med, high)
	}
	if high < 0.25 {
		t.Errorf("high-reuse overlap %.3f too low", high)
	}
	if low > 0.15 {
		t.Errorf("low-reuse overlap %.3f too high", low)
	}
}

func TestInteractionMixIncludesDrill(t *testing.T) {
	steps := Generate(Config{Level: High, N: 64})
	seen := map[Interaction]int{}
	fiveWay := 0
	for _, s := range steps {
		seen[s.Kind]++
		if len(s.Query.Relations) == 5 {
			fiveWay++
		}
	}
	for _, k := range []Interaction{ZoomIn, ZoomOut, ShiftMuch, ShiftLess} {
		if seen[k] == 0 {
			t.Errorf("interaction %v never generated", k)
		}
	}
	if seen[DrillDown] == 0 {
		t.Error("no drill-downs generated")
	}
	if fiveWay == 0 {
		t.Error("no 5-way joins reached")
	}
}

func TestStepSQLRendersAndParses(t *testing.T) {
	steps := Generate(Config{Level: Medium, N: 8})
	for _, s := range steps {
		sql := s.SQL()
		if len(sql) == 0 {
			t.Fatal("empty SQL")
		}
	}
}

func TestExp2Trace(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{SF: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	for _, tbl := range db.Tables() {
		cat.Register(tbl)
	}
	trace := Exp2Trace()
	if len(trace) != 7 {
		t.Fatalf("trace length %d", len(trace))
	}
	kinds := []Interaction{Seed, ZoomIn, ZoomOut, ShiftMuch, ShiftLess, DrillDown, RollUp}
	for i, s := range trace {
		if s.Kind != kinds[i] {
			t.Errorf("step %d kind %v, want %v", i, s.Kind, kinds[i])
		}
		if err := s.Query.Validate(cat); err != nil {
			t.Errorf("step %d: %v", i, err)
		}
		if len(s.Query.Relations) != 5 {
			t.Errorf("step %d has %d relations", i, len(s.Query.Relations))
		}
	}
	if len(trace[5].Query.GroupBy) != 2 {
		t.Error("drill-down should add a group-by column")
	}
	if len(trace[6].Query.GroupBy) != 1 || trace[6].Query.GroupBy[0].Column != "p_brand" {
		t.Errorf("roll-up group-by = %v", trace[6].Query.GroupBy)
	}
}

func TestLevelAndInteractionStrings(t *testing.T) {
	if Low.String() != "low" || Medium.String() != "medium" || High.String() != "high" || Level(9).String() != "level(?)" {
		t.Error("Level strings")
	}
	if Seed.String() != "seed" || ZoomIn.String() != "zoom-in" || Interaction(99).String() != "interaction(?)" {
		t.Error("Interaction strings")
	}
	if Low.Overlap() >= Medium.Overlap() || Medium.Overlap() >= High.Overlap() {
		t.Error("Overlap ordering")
	}
}

func TestGenerateRangeShape(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{SF: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	for _, tbl := range db.Tables() {
		cat.Register(tbl)
	}
	steps := GenerateRange(RangeConfig{N: 24, Selectivity: 0.01, TopK: 10})
	if len(steps) != 24 {
		t.Fatalf("%d steps", len(steps))
	}
	topk := 0
	for i, s := range steps {
		if err := s.Query.Validate(cat); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if len(s.Query.Relations) != 1 {
			t.Fatalf("step %d: %d relations", i, len(s.Query.Relations))
		}
		if s.Lo >= s.Hi {
			t.Fatalf("step %d: window [%d, %d)", i, s.Lo, s.Hi)
		}
		if s.Query.OrderBy != nil {
			topk++
			if s.Query.Limit != 10 {
				t.Fatalf("step %d: limit %d", i, s.Query.Limit)
			}
		}
	}
	if topk != 24/4 {
		t.Errorf("top-k steps = %d, want %d", topk, 24/4)
	}

	a := GenerateRange(RangeConfig{N: 8})
	b := GenerateRange(RangeConfig{N: 8})
	for i := range a {
		if a[i].Lo != b[i].Lo {
			t.Fatal("not deterministic")
		}
	}
}
