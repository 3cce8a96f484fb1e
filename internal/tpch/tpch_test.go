package tpch

import (
	"testing"

	"hashstash/internal/types"
)

func TestGenerateSmall(t *testing.T) {
	db, err := Generate(Config{SF: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range db.Tables() {
		if tbl.NumRows() < 20 {
			t.Errorf("table %q has %d rows, want >= 20 (floor)", tbl.Name, tbl.NumRows())
		}
		if err := tbl.Check(); err != nil {
			t.Errorf("table %q: %v", tbl.Name, err)
		}
	}
	// Lineitem should average ~4 lines per order.
	ratio := float64(db.Lineitem.NumRows()) / float64(db.Orders.NumRows())
	if ratio < 2 || ratio > 6 {
		t.Errorf("lineitem/order ratio = %f", ratio)
	}
}

func TestGenerateInvalidSF(t *testing.T) {
	if _, err := Generate(Config{SF: 0}); err == nil {
		t.Error("SF=0 should fail")
	}
	if _, err := Generate(Config{SF: -1}); err == nil {
		t.Error("SF<0 should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{SF: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{SF: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	if a.Lineitem.NumRows() != b.Lineitem.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", a.Lineitem.NumRows(), b.Lineitem.NumRows())
	}
	ca, cb := a.Lineitem.Column("l_extendedprice"), b.Lineitem.Column("l_extendedprice")
	for i := 0; i < a.Lineitem.NumRows(); i += 97 {
		if ca.Floats[i] != cb.Floats[i] {
			t.Fatalf("row %d differs: %f vs %f", i, ca.Floats[i], cb.Floats[i])
		}
	}
	// A different seed must change the data.
	c, err := Generate(Config{SF: 0.002, Seed: 12345})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	cc := c.Lineitem.Column("l_extendedprice")
	n := a.Lineitem.NumRows()
	if c.Lineitem.NumRows() < n {
		n = c.Lineitem.NumRows()
	}
	for i := 0; i < n; i++ {
		if ca.Floats[i] != cc.Floats[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seed produced identical lineitem prices")
	}
}

func TestReferentialIntegrity(t *testing.T) {
	db, err := Generate(Config{SF: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	nCust := int64(db.Customer.NumRows())
	for _, ck := range db.Orders.Column("o_custkey").Ints {
		if ck < 1 || ck > nCust {
			t.Fatalf("o_custkey %d out of range [1,%d]", ck, nCust)
		}
	}
	nPart := int64(db.Part.NumRows())
	nSupp := int64(db.Supplier.NumRows())
	orderDates := make(map[int64]int64, db.Orders.NumRows())
	okeys := db.Orders.Column("o_orderkey").Ints
	odates := db.Orders.Column("o_orderdate").Ints
	for i, k := range okeys {
		orderDates[k] = odates[i]
	}
	lkeys := db.Lineitem.Column("l_orderkey").Ints
	lship := db.Lineitem.Column("l_shipdate").Ints
	lpart := db.Lineitem.Column("l_partkey").Ints
	lsupp := db.Lineitem.Column("l_suppkey").Ints
	for i := range lkeys {
		od, ok := orderDates[lkeys[i]]
		if !ok {
			t.Fatalf("l_orderkey %d has no order", lkeys[i])
		}
		if lship[i] <= od || lship[i] > od+121 {
			t.Fatalf("l_shipdate %d not within (orderdate, orderdate+121]", lship[i])
		}
		if lpart[i] < 1 || lpart[i] > nPart {
			t.Fatalf("l_partkey %d out of range", lpart[i])
		}
		if lsupp[i] < 1 || lsupp[i] > nSupp {
			t.Fatalf("l_suppkey %d out of range", lsupp[i])
		}
	}
}

func TestValueDomains(t *testing.T) {
	db, err := Generate(Config{SF: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	for _, age := range db.Customer.Column("c_age").Ints {
		if age < 18 || age > 92 {
			t.Fatalf("c_age %d out of [18,92]", age)
		}
	}
	segs := map[string]bool{}
	seg := db.Customer.Column("c_mktsegment")
	for i := range seg.Len() {
		segs[seg.Value(i).S] = true
	}
	if len(segs) != 5 {
		t.Errorf("mktsegment cardinality = %d, want 5", len(segs))
	}
	lo, hi := OrderDateRange()
	if lo != types.MustParseDate("1992-01-01") || hi != types.MustParseDate("1998-08-02") {
		t.Errorf("OrderDateRange = %d, %d", lo, hi)
	}
	for _, d := range db.Orders.Column("o_orderdate").Ints {
		if d < lo || d > hi {
			t.Fatalf("o_orderdate %s out of range", types.FormatDate(d))
		}
	}
	for _, q := range db.Lineitem.Column("l_quantity").Ints {
		if q < 1 || q > 50 {
			t.Fatalf("l_quantity %d out of [1,50]", q)
		}
	}
	for _, d := range db.Lineitem.Column("l_discount").Floats {
		if d < 0 || d > 0.10001 {
			t.Fatalf("l_discount %f out of [0,0.1]", d)
		}
	}
}

func TestRNGHelpers(t *testing.T) {
	r := newRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.rangeInt(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("rangeInt out of bounds: %d", v)
		}
		f := r.float()
		if f < 0 || f >= 1 {
			t.Fatalf("float out of bounds: %f", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("intn(0) should panic")
		}
	}()
	r.intn(0)
}

// BenchmarkLoadTPCH generates the database at the benchmark's scale
// factor. Its allocs/op counts columns and tables, not rows: a return of
// per-row allocation (a name formatted per row, a column grown by
// append) multiplies it.
func BenchmarkLoadTPCH(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Generate(Config{SF: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}
