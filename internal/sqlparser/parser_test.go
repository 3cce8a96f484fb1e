package sqlparser

import (
	"errors"
	"strings"
	"testing"

	"hashstash/hashstasherr"
	"hashstash/internal/catalog"
	"hashstash/internal/expr"
	"hashstash/internal/storage"
	"hashstash/internal/tpch"
	"hashstash/internal/types"
)

func testCat(t *testing.T) *catalog.Catalog {
	t.Helper()
	db, err := tpch.Generate(tpch.Config{SF: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	for _, tbl := range db.Tables() {
		cat.Register(tbl)
	}
	return cat
}

func TestParseQ3Shape(t *testing.T) {
	cat := testCat(t)
	q, err := Parse(`
		SELECT c.c_age, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue
		FROM customer c, orders o, lineitem l
		WHERE c.c_custkey = o.o_custkey
		  AND o.o_orderkey = l.l_orderkey
		  AND l.l_shipdate >= DATE '1995-03-15'
		GROUP BY c.c_age`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Relations) != 3 || q.Relations[1].Alias != "o" || q.Relations[1].Table != "orders" {
		t.Errorf("relations = %v", q.Relations)
	}
	if len(q.Joins) != 2 {
		t.Errorf("joins = %v", q.Joins)
	}
	if len(q.Filter) != 1 {
		t.Fatalf("filter = %v", q.Filter)
	}
	con, ok := q.Filter.Constraint(storage.ColRef{Table: "l", Column: "l_shipdate"})
	if !ok || !con.Iv.HasLo || con.Iv.Lo.I != types.MustParseDate("1995-03-15") || !con.Iv.LoIncl {
		t.Errorf("shipdate constraint = %v", con)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != (storage.ColRef{Table: "c", Column: "c_age"}) {
		t.Errorf("group by = %v", q.GroupBy)
	}
	if len(q.Aggs) != 1 || q.Aggs[0].Func != expr.AggSum || q.Aggs[0].Alias != "revenue" {
		t.Errorf("aggs = %v", q.Aggs)
	}
	if got := q.Aggs[0].Arg.String(); got != "(l.l_extendedprice * (1 - l.l_discount))" {
		t.Errorf("agg arg = %s", got)
	}
}

func TestParseBareColumnsAndDefaults(t *testing.T) {
	cat := testCat(t)
	q, err := Parse(`SELECT c_name FROM customer WHERE c_age >= 30 AND c_mktsegment = 'BUILDING'`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if q.Relations[0].Alias != "customer" {
		t.Errorf("default alias = %q", q.Relations[0].Alias)
	}
	if len(q.Select) != 1 || q.Select[0].Column != "c_name" {
		t.Errorf("select = %v", q.Select)
	}
	seg, ok := q.Filter.Constraint(storage.ColRef{Table: "customer", Column: "c_mktsegment"})
	if !ok || len(seg.Set) != 1 || seg.Set[0] != "BUILDING" {
		t.Errorf("segment constraint = %v", seg)
	}
}

func TestParseOperatorsAndBetween(t *testing.T) {
	cat := testCat(t)
	q, err := Parse(`SELECT o_orderkey FROM orders
		WHERE o_totalprice > 1000 AND o_totalprice <= 5000
		  AND o_orderdate BETWEEN '1995-01-01' AND '1995-12-31'`, cat)
	if err != nil {
		t.Fatal(err)
	}
	price, ok := q.Filter.Constraint(storage.ColRef{Table: "orders", Column: "o_totalprice"})
	if !ok {
		t.Fatal("price constraint missing")
	}
	if !price.Iv.HasLo || price.Iv.LoIncl || price.Iv.Lo.F != 1000 {
		t.Errorf("price lo = %v", price.Iv)
	}
	if !price.Iv.HasHi || !price.Iv.HiIncl || price.Iv.Hi.F != 5000 {
		t.Errorf("price hi = %v", price.Iv)
	}
	date, ok := q.Filter.Constraint(storage.ColRef{Table: "orders", Column: "o_orderdate"})
	if !ok || !date.Iv.HasLo || !date.Iv.HasHi || !date.Iv.LoIncl || !date.Iv.HiIncl {
		t.Errorf("date constraint = %v", date)
	}
}

func TestParseInList(t *testing.T) {
	cat := testCat(t)
	q, err := Parse(`SELECT p_partkey FROM part WHERE p_brand IN ('Brand#11', 'Brand#22')`, cat)
	if err != nil {
		t.Fatal(err)
	}
	con, ok := q.Filter.Constraint(storage.ColRef{Table: "part", Column: "p_brand"})
	if !ok || len(con.Set) != 2 {
		t.Errorf("IN constraint = %v", con)
	}
}

func TestParseCountStarAndAvg(t *testing.T) {
	cat := testCat(t)
	q, err := Parse(`SELECT c_age, COUNT(*), AVG(c_acctbal) FROM customer GROUP BY c_age`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggs) != 2 || q.Aggs[0].Func != expr.AggCount || q.Aggs[0].Arg != nil {
		t.Errorf("aggs = %v", q.Aggs)
	}
	if q.Aggs[1].Func != expr.AggAvg || q.Aggs[1].Arg == nil {
		t.Errorf("avg = %v", q.Aggs[1])
	}
}

func TestParseErrors(t *testing.T) {
	cat := testCat(t)
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM customer",
		"FROM customer",
		"SELECT c_name customer",            // missing FROM
		"SELECT zzz FROM customer",          // unknown column
		"SELECT c_name FROM nosuch",         // unknown table
		"SELECT c_name FROM customer WHERE", // dangling where
		"SELECT c_name FROM customer WHERE c_age",                    // no comparison
		"SELECT c_name FROM customer WHERE c_age !! 3",               // bad symbol
		"SELECT c_name FROM customer WHERE c_age >= 'x'",             // ... parses as string? kind=int -> bad number? actually string literal on int column
		"SELECT c_name FROM customer WHERE c_name > 'a'",             // range on string
		"SELECT c_name FROM customer WHERE c_age IN (1, 2)",          // IN on int
		"SELECT SUM(*) FROM customer",                                // SUM(*)
		"SELECT c_name FROM customer GROUP BY",                       // dangling group by
		"SELECT c_name FROM customer WHERE c_age BETWEEN 1 OR 2",     // bad between
		"SELECT c_name, c_age FROM customer GROUP BY c_age",          // select not grouped
		"SELECT c_name FROM customer extra trailing",                 // trailing
		"SELECT c_name FROM customer WHERE c_age = 3 AND",            // dangling and
		"SELECT c_custkey FROM customer, orders WHERE c_age > 1",     // disconnected join graph
		"SELECT o_orderkey FROM orders WHERE o_orderdate >= 'xx-yy'", // bad date
		"SELECT c_name FROM customer WHERE c_custkey <> c_nationkey", // non-equi join
	}
	for _, sql := range bad {
		if _, err := Parse(sql, cat); err == nil {
			t.Errorf("accepted: %s", sql)
		}
	}
}

func TestParseRejectsStringAggregates(t *testing.T) {
	cat := testCat(t)
	for _, fn := range []string{"SUM", "AVG", "MIN", "MAX"} {
		_, err := Parse("SELECT "+fn+"(c.c_name) FROM customer c", cat)
		var pe *hashstasherr.ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s over a string column: err = %v, want a *ParseError", fn, err)
		}
	}
	if _, err := Parse("SELECT COUNT(c.c_name) FROM customer c", cat); err != nil {
		t.Errorf("COUNT over a string column: %v", err)
	}
}

// validationFailures are statements that lex and parse but fail plan
// validation: each is a client mistake.
var validationFailures = []string{
	"SELECT c.c_name, c.c_age FROM customer c GROUP BY c.c_age",
	"SELECT c.c_custkey FROM customer c, orders o",
	"SELECT c.c_age FROM customer c ORDER BY c.c_name",
	"SELECT c.c_age FROM customer c, orders c WHERE c.c_custkey = c.o_custkey",
}

func TestParseValidationFailuresAreParseErrors(t *testing.T) {
	cat := testCat(t)
	for _, sql := range validationFailures {
		_, err := Parse(sql, cat)
		var pe *hashstasherr.ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want a *ParseError", sql, err)
			continue
		}
		if pe.Unwrap() == nil || pe.Msg == "" {
			t.Errorf("%s: the validation error is not kept: %#v", sql, pe)
		}
	}
	// A validation error that carries a sentinel keeps it.
	_, err := Parse("SELECT c.c_age FROM customer c, nosuch n", cat)
	if !errors.Is(err, hashstasherr.ErrUnknownTable) {
		t.Errorf("unknown table: err = %v, want ErrUnknownTable", err)
	}
}

func TestParseRejectsLimitZero(t *testing.T) {
	cat := testCat(t)
	_, err := Parse("SELECT c.c_age FROM customer c LIMIT 0", cat)
	var pe *hashstasherr.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("LIMIT 0: err = %v, want a *ParseError", err)
	}
	q, err := Parse("SELECT c.c_age FROM customer c LIMIT 1", cat)
	if err != nil || q.Limit != 1 {
		t.Fatalf("LIMIT 1: limit %v, err %v", q, err)
	}
}

func TestParseJoinBothQualifications(t *testing.T) {
	cat := testCat(t)
	q, err := Parse(`SELECT o.o_orderkey FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND l_quantity >= 25`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Joins) != 1 {
		t.Fatalf("joins = %v", q.Joins)
	}
	qty, ok := q.Filter.Constraint(storage.ColRef{Table: "l", Column: "l_quantity"})
	if !ok || qty.Iv.Lo.I != 25 {
		t.Errorf("quantity = %v", qty)
	}
}

func TestParseAmbiguousBareColumn(t *testing.T) {
	cat := testCat(t)
	// c_nationkey exists in customer; s_nationkey in supplier — but a
	// truly ambiguous name needs two tables sharing a column name.
	// nationkey columns are prefixed, so craft ambiguity via two aliases
	// of the same table... the parser rejects duplicate aliases, so use
	// the one genuinely shared name scenario: none exists in TPC-H.
	// Instead assert that qualified references disambiguate fine.
	q, err := Parse(`SELECT c.c_nationkey FROM customer c, supplier s WHERE c.c_nationkey = s.s_nationkey`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Joins) != 1 {
		t.Errorf("joins = %v", q.Joins)
	}
}

func TestLexerDetails(t *testing.T) {
	toks, err := lex("a<=b >= 'it''s' 1.5")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.text)
	}
	joined := strings.Join(texts, "|")
	if !strings.Contains(joined, "<=") || !strings.Contains(joined, ">=") {
		t.Errorf("two-char symbols: %v", texts)
	}
	if !strings.Contains(joined, "it's") {
		t.Errorf("escaped quote: %v", texts)
	}
	if _, err := lex("'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lex("1. "); err == nil {
		t.Error("malformed number accepted")
	}
	if _, err := lex("a ? b"); err == nil {
		t.Error("bad character accepted")
	}
}
