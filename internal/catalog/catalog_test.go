package catalog

import (
	"math"
	"testing"

	"hashstash/internal/expr"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

func makeTable() *storage.Table {
	age := storage.NewColumn("age", types.Int64)
	seg := storage.NewColumn("seg", types.String)
	bal := storage.NewColumn("bal", types.Float64)
	for i := 0; i < 100; i++ {
		age.Ints = append(age.Ints, int64(i%50)) // NDV 50, range 0..49
		if i%2 == 0 {
			seg.Append(types.NewString("A"))
		} else {
			seg.Append(types.NewString("B"))
		}
		bal.Floats = append(bal.Floats, float64(i))
	}
	return storage.NewTable("t", age, seg, bal)
}

func TestRegisterAndLookups(t *testing.T) {
	c := New()
	tbl := makeTable()
	c.Register(tbl)
	if c.Table("t") != tbl || c.Table("zz") != nil {
		t.Error("Table lookup broken")
	}
	if _, ok := c.Stats("t"); !ok {
		t.Error("Stats lookup broken")
	}
	if _, ok := c.Stats("zz"); ok {
		t.Error("Stats lookup broken")
	}
	if names := c.TableNames(); len(names) != 1 || names[0] != "t" {
		t.Errorf("TableNames = %v", names)
	}
	if k, err := c.Resolve("t", "age"); err != nil || k != types.Int64 {
		t.Errorf("Resolve = %v, %v", k, err)
	}
	if _, err := c.Resolve("nope", "age"); err == nil {
		t.Error("Resolve unknown table should fail")
	}
	if _, err := c.Resolve("t", "nope"); err == nil {
		t.Error("Resolve unknown column should fail")
	}
}

// statsOf registers tbl in a fresh catalog and returns its statistics.
func statsOf(tbl *storage.Table) TableStats {
	c := New()
	c.Register(tbl)
	ts, _ := c.Stats(tbl.Name)
	return ts
}

// colStats returns a column's statistics through the table view.
func colStats(ts TableStats, name string) storage.ColumnStats {
	cs, _ := ts.Col(name)
	return cs
}

func TestComputeStats(t *testing.T) {
	ts := statsOf(makeTable())
	if ts.Rows != 100 {
		t.Errorf("Rows = %d", ts.Rows)
	}
	ageStats := colStats(ts, "age")
	if ageStats.NDV != 50 || ageStats.Min.I != 0 || ageStats.Max.I != 49 {
		t.Errorf("age stats = %+v", ageStats)
	}
	segStats := colStats(ts, "seg")
	if segStats.NDV != 2 || segStats.Min.S != "A" || segStats.Max.S != "B" {
		t.Errorf("seg stats = %+v", segStats)
	}
	balStats := colStats(ts, "bal")
	if balStats.NDV != 100 || balStats.Min.F != 0 || balStats.Max.F != 99 {
		t.Errorf("bal stats = %+v", balStats)
	}
}

func TestComputeStatsEmptyTable(t *testing.T) {
	ts := statsOf(storage.NewTable("e", storage.NewColumn("x", types.Int64)))
	if ts.Rows != 0 || colStats(ts, "x").NDV != 0 {
		t.Errorf("empty stats = %+v", ts)
	}
	// Selectivity over empty stats must not divide by zero.
	box := expr.NewBox(expr.Pred{
		Col: storage.ColRef{Table: "e", Column: "x"},
		Con: expr.IntervalConstraint(types.Int64, expr.PointInterval(types.NewInt(1))),
	})
	if s := ts.Selectivity(box); s != 1 {
		t.Errorf("empty-table selectivity = %f", s)
	}
}

func ivc(lo, hi int64) expr.Constraint {
	return expr.IntervalConstraint(types.Int64, expr.Interval{
		HasLo: true, Lo: types.NewInt(lo), LoIncl: true,
		HasHi: true, Hi: types.NewInt(hi), HiIncl: true,
	})
}

func TestSelectivity(t *testing.T) {
	ts := statsOf(makeTable())
	col := func(name string) storage.ColRef { return storage.ColRef{Table: "t", Column: name} }

	// age range [0,49]; constraint [0, 24] covers ~half.
	box := expr.NewBox(expr.Pred{Col: col("age"), Con: ivc(0, 24)})
	if s := ts.Selectivity(box); math.Abs(s-24.0/49.0) > 1e-9 {
		t.Errorf("age selectivity = %f", s)
	}

	// Full range → 1.
	box = expr.NewBox(expr.Pred{Col: col("age"), Con: ivc(0, 49)})
	if s := ts.Selectivity(box); s != 1 {
		t.Errorf("full selectivity = %f", s)
	}

	// String set {A} of NDV 2 → 0.5.
	box = expr.NewBox(expr.Pred{Col: col("seg"), Con: expr.SetConstraint("A")})
	if s := ts.Selectivity(box); s != 0.5 {
		t.Errorf("string selectivity = %f", s)
	}

	// Independence: both → 0.25-ish.
	box = expr.NewBox(
		expr.Pred{Col: col("age"), Con: ivc(0, 24)},
		expr.Pred{Col: col("seg"), Con: expr.SetConstraint("A")},
	)
	if s := ts.Selectivity(box); math.Abs(s-0.5*24.0/49.0) > 1e-9 {
		t.Errorf("combined selectivity = %f", s)
	}

	// Point constraint → 1/NDV.
	box = expr.NewBox(expr.Pred{Col: col("age"), Con: ivc(7, 7)})
	if s := ts.Selectivity(box); math.Abs(s-1.0/50.0) > 1e-9 {
		t.Errorf("point selectivity = %f", s)
	}

	// Empty constraint → 0.
	box = expr.NewBox(expr.Pred{Col: col("age"), Con: ivc(10, 5)})
	if s := ts.Selectivity(box); s != 0 {
		t.Errorf("empty selectivity = %f", s)
	}

	// Out-of-range constraint → 0.
	box = expr.NewBox(expr.Pred{Col: col("age"), Con: ivc(100, 200)})
	if s := ts.Selectivity(box); s != 0 {
		t.Errorf("out-of-range selectivity = %f", s)
	}

	// Predicates on unknown columns are ignored.
	box = expr.NewBox(expr.Pred{Col: storage.ColRef{Table: "x", Column: "nope"}, Con: ivc(0, 1)})
	if s := ts.Selectivity(box); s != 1 {
		t.Errorf("foreign-column selectivity = %f", s)
	}
}

func TestEstimateRowsAndDistinct(t *testing.T) {
	ts := statsOf(makeTable())
	col := func(name string) storage.ColRef { return storage.ColRef{Table: "t", Column: name} }

	box := expr.NewBox(expr.Pred{Col: col("age"), Con: ivc(0, 24)})
	rows := ts.EstimateRows(box)
	if rows < 40 || rows > 60 {
		t.Errorf("EstimateRows = %f", rows)
	}

	// Distinct ages under a filter on age: scaled NDV.
	d := ts.DistinctAfterFilter("age", box)
	if d < 20 || d > 30 {
		t.Errorf("DistinctAfterFilter(age) = %f", d)
	}

	// Distinct of an unconstrained column capped by filtered rows.
	d = ts.DistinctAfterFilter("bal", box)
	if d > rows {
		t.Errorf("distinct %f exceeds rows %f", d, rows)
	}

	// Unknown column → 1.
	if d = ts.DistinctAfterFilter("nope", nil); d != 1 {
		t.Errorf("unknown column distinct = %f", d)
	}

	// Never below 1.
	tiny := expr.NewBox(expr.Pred{Col: col("age"), Con: ivc(3, 3)})
	if d = ts.DistinctAfterFilter("age", tiny); d < 1 {
		t.Errorf("distinct fell below 1: %f", d)
	}
}

func TestSingleValuedColumnSelectivity(t *testing.T) {
	c := storage.NewColumn("k", types.Int64)
	c.Ints = []int64{5, 5, 5}
	ts := statsOf(storage.NewTable("s", c))
	in := expr.NewBox(expr.Pred{Col: storage.ColRef{Table: "s", Column: "k"}, Con: ivc(0, 10)})
	out := expr.NewBox(expr.Pred{Col: storage.ColRef{Table: "s", Column: "k"}, Con: ivc(6, 10)})
	if s := ts.Selectivity(in); s != 1 {
		t.Errorf("containing selectivity = %f", s)
	}
	if s := ts.Selectivity(out); s != 0 {
		t.Errorf("excluding selectivity = %f", s)
	}
}
