package costmodel

import (
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadGrids(t *testing.T) {
	c := Default()
	c.Sizes = nil
	if c.Validate() == nil {
		t.Error("empty sizes accepted")
	}
	c = Default()
	c.Sizes[1] = c.Sizes[0]
	if c.Validate() == nil {
		t.Error("non-ascending sizes accepted")
	}
	c = Default()
	c.Widths[1] = c.Widths[0]
	if c.Validate() == nil {
		t.Error("non-ascending widths accepted")
	}
	c = Default()
	c.Insert = c.Insert[:1]
	if c.Validate() == nil {
		t.Error("short grid accepted")
	}
	c = Default()
	c.Probe[0] = c.Probe[0][:1]
	if c.Validate() == nil {
		t.Error("ragged grid accepted")
	}
	c = Default()
	c.Update[0][0] = -1
	if c.Validate() == nil {
		t.Error("negative cost accepted")
	}
}

func TestInterpolationAtGridPoints(t *testing.T) {
	c := Default()
	for si, size := range c.Sizes {
		for wi, width := range c.Widths {
			got := c.InsertCost(float64(size), width)
			want := c.Insert[si][wi]
			if diff := got - want; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("InsertCost(%d, %d) = %f, want grid value %f", size, width, got, want)
			}
		}
	}
}

func TestInterpolationBetweenPoints(t *testing.T) {
	c := Default()
	// Between 1KB and 32KB at width 8 the value must lie between the
	// surrounding grid values.
	lo, hi := c.Insert[0][0], c.Insert[1][0]
	got := c.InsertCost(8<<10, 8)
	if got < lo || got > hi {
		t.Errorf("interpolated %f outside [%f, %f]", got, lo, hi)
	}
	// Between widths.
	lo, hi = c.Probe[0][2], c.Probe[0][3]
	got = c.ProbeCost(1<<10, 96)
	if got < lo || got > hi {
		t.Errorf("width-interpolated %f outside [%f, %f]", got, lo, hi)
	}
}

func TestInterpolationClamping(t *testing.T) {
	c := Default()
	if got := c.InsertCost(1, 8); got != c.Insert[0][0] {
		t.Errorf("below-grid size = %f, want %f", got, c.Insert[0][0])
	}
	if got := c.InsertCost(1<<40, 8); got != c.Insert[len(c.Sizes)-1][0] {
		t.Errorf("above-grid size = %f", got)
	}
	if got := c.InsertCost(1<<10, 4); got != c.Insert[0][0] {
		t.Errorf("below-grid width = %f", got)
	}
	if got := c.InsertCost(1<<10, 1024); got != c.Insert[0][len(c.Widths)-1] {
		t.Errorf("above-grid width = %f", got)
	}
}

func TestCostsGrowWithSizeAndWidth(t *testing.T) {
	c := Default()
	// Paper Figure 3 shape: larger tables and wider tuples cost more.
	if c.InsertCost(1<<30, 8) <= c.InsertCost(1<<10, 8) {
		t.Error("insert cost should grow with size")
	}
	if c.ProbeCost(1<<20, 256) <= c.ProbeCost(1<<20, 8) {
		t.Error("probe cost should grow with width")
	}
	if c.UpdateCost(32<<20, 64) <= c.UpdateCost(32<<10, 64) {
		t.Error("update cost should grow with size")
	}
}

func TestScanCost(t *testing.T) {
	c := Default()
	if c.ScanCost(0, 8) != 0 {
		t.Error("zero rows should cost zero")
	}
	if c.ScanCost(100, 64) <= c.ScanCost(100, 8) {
		t.Error("wider rows should cost more")
	}
}

func TestResizeCost(t *testing.T) {
	m := NewModel(nil)
	if got := m.ResizeCost(1000, 1000); got != 0 {
		t.Errorf("no growth cost = %f", got)
	}
	if got := m.ResizeCost(1000, 500); got != 0 {
		t.Errorf("shrink cost = %f", got)
	}
	small := m.ResizeCost(0, 1000)
	large := m.ResizeCost(0, 1000000)
	if small <= 0 || large <= small {
		t.Errorf("resize costs: small=%f large=%f", small, large)
	}
	// Growing from a prefilled table costs no more than from scratch.
	if m.ResizeCost(500000, 1000000) > large {
		t.Error("incremental resize should not exceed full resize")
	}
	// 1000 entries fill 1024 slots: the 1025th entry relinks all 1024
	// once, and growing from empty relinks at each of 8, 16, …, 512.
	if one, all := m.ResizeCost(1000, 1025), m.ResizeCost(0, 1000); one != 1024*9 || all != 1016*9 {
		t.Errorf("one doubling = %f, fresh schedule = %f", one, all)
	}
}

func TestRHJCostModelShape(t *testing.T) {
	m := NewModel(nil)
	base := RHJInput{
		BuilderRows: 100000,
		ProberRows:  1000000,
		Contr:       0,
		Overh:       0,
		CandRows:    0,
		TupleWidth:  16,
	}
	fresh := m.RHJ(base)

	// Full contribution (exact reuse) must be cheaper than fresh build.
	exact := base
	exact.Contr = 1
	exact.CandRows = 100000
	if m.RHJ(exact) >= fresh {
		t.Error("exact reuse should beat fresh build")
	}

	// Cost decreases monotonically with contribution.
	prev := fresh
	for _, contr := range []float64{0.25, 0.5, 0.75, 1} {
		in := base
		in.Contr = contr
		in.CandRows = base.BuilderRows * contr
		cost := m.RHJ(in)
		if cost >= prev {
			t.Errorf("cost did not decrease at contr=%f: %f >= %f", contr, cost, prev)
		}
		prev = cost
	}

	// Overhead makes reuse more expensive (bigger table + post-filter).
	lowOverh := base
	lowOverh.Contr = 1
	lowOverh.CandRows = 100000
	highOverh := lowOverh
	highOverh.Overh = 0.9
	highOverh.CandRows = 1000000 // table is 10x bigger than needed
	if m.RHJ(highOverh) <= m.RHJ(lowOverh) {
		t.Error("overhead should increase cost")
	}

	// The paper's crossover: with high enough overhead, reusing can be
	// worse than building fresh.
	extreme := base
	extreme.Contr = 0.05
	extreme.Overh = 0.95
	extreme.CandRows = 2000000
	if m.RHJ(extreme) <= fresh {
		t.Error("expected always-share to lose at very low contribution")
	}
}

func TestRHACostModelShape(t *testing.T) {
	m := NewModel(nil)
	base := RHAInput{
		InputRows:    1000000,
		DistinctKeys: 10000,
		Contr:        0,
		Overh:        0,
		CandRows:     0,
		TupleWidth:   24,
	}
	fresh := m.RHA(base)
	exact := base
	exact.Contr = 1
	exact.CandRows = 10000
	if got := m.RHA(exact); got >= fresh {
		t.Errorf("exact agg reuse %f should beat fresh %f", got, fresh)
	}
	// Updates dominate inserts: same distinct keys, more input rows.
	moreInput := base
	moreInput.InputRows = 5000000
	if m.RHA(moreInput) <= fresh {
		t.Error("more input rows should cost more")
	}
	// Negative update count guard.
	degenerate := base
	degenerate.InputRows = 5
	degenerate.DistinctKeys = 10
	if got := m.RHA(degenerate); got <= 0 {
		t.Errorf("degenerate agg cost = %f", got)
	}
}

func TestEstimateHTBytes(t *testing.T) {
	if EstimateHTBytes(-5, 8) != 0 {
		t.Error("negative rows should clamp to 0")
	}
	if EstimateHTBytes(1000, 8) >= EstimateHTBytes(1000, 64) {
		t.Error("wider tuples need more bytes")
	}
}

func TestClamp01(t *testing.T) {
	cases := map[float64]float64{-1: 0, 0: 0, 0.5: 0.5, 1: 1, 2: 1}
	for in, want := range cases {
		if got := clamp01(in); got != want {
			t.Errorf("clamp01(%f) = %f", in, got)
		}
	}
}

// TestCalibrateTiny runs the real micro-benchmark on a tiny grid to make
// sure the machinery works end-to-end; values are host-dependent, so we
// only check structure and positivity.
func TestCalibrateTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration micro-benchmark")
	}
	cal, err := Calibrate(CalibrateOptions{
		Sizes:       []int64{1 << 10, 64 << 10},
		Widths:      []int{8, 64},
		OpsPerPoint: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.Validate(); err != nil {
		t.Fatal(err)
	}
	if cal.ScanBase <= 0 || cal.ScanPerByte <= 0 {
		t.Errorf("scan model: base=%f perByte=%f", cal.ScanBase, cal.ScanPerByte)
	}
}

func TestCalibrateRejectsEmptyGrid(t *testing.T) {
	if _, err := Calibrate(CalibrateOptions{}); err == nil {
		t.Error("empty grid accepted")
	}
}

func TestDefaultCalibrateOptions(t *testing.T) {
	opt := DefaultCalibrateOptions()
	if len(opt.Sizes) == 0 || len(opt.Widths) == 0 || opt.OpsPerPoint <= 0 {
		t.Errorf("bad defaults: %+v", opt)
	}
}
