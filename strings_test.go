package hashstash

import (
	"math"
	"slices"
	"strings"
	"testing"

	"hashstash/internal/types"
)

// TestNaNAnswersIndependentOfReuse: NaN sorts above +Inf in the float
// kernels and in the box algebra alike, so a query over a NaN-holding
// column answers the same whether it scans or reuses a cached table
// whose post-filter drops the false positives. v > 4 AND v < 2 is empty
// (NaN passes the lower bound and fails the upper one), even after
// v > 5 and v > 3 are cached.
func TestNaNAnswersIndependentOfReuse(t *testing.T) {
	queries := []string{
		`SELECT f.v, COUNT(*) AS n FROM f f WHERE f.v > 5 GROUP BY f.v`,
		`SELECT f.v, COUNT(*) AS n FROM f f WHERE f.v > 3 GROUP BY f.v`,
		`SELECT f.v, COUNT(*) AS n FROM f f WHERE f.v > 4 AND f.v < 2 GROUP BY f.v`,
	}
	var want [][]string
	for _, s := range []Strategy{NeverReuse, CostModel, AlwaysReuse} {
		db := Open(WithStrategy(s))
		if err := db.CreateTable("f", map[string]Kind{"k": types.Int64, "v": types.Float64}, []string{"k", "v"}); err != nil {
			t.Fatal(err)
		}
		rows := make([][]Value, 2000)
		for i := range rows {
			v := float64(i % 10)
			if i%7 == 0 {
				v = math.NaN()
			}
			rows[i] = []Value{types.NewInt(int64(i)), types.NewFloat(v)}
		}
		if err := db.InsertRows("f", rows); err != nil {
			t.Fatal(err)
		}
		var got [][]string
		for _, q := range queries {
			res, err := db.Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, canonical(res))
		}
		if want == nil {
			want = got
			if !slices.Contains(want[0], "NaN|286") || len(want[2]) != 0 {
				t.Fatalf("%v answers %v: want a NaN group of 286 under v > 5 and no row under v > 4 AND v < 2", s, want)
			}
			continue
		}
		for i := range queries {
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("%v answers %q with %v, NeverReuse with %v", s, queries[i], got[i], want[i])
			}
		}
	}
}

// stringsDB opens a database with a table t of string values inserted
// in an order unlike their lexical one.
func stringsDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	if err := db.CreateTable("t", map[string]Kind{"k": types.Int64, "s": types.String}, []string{"k", "s"}); err != nil {
		t.Fatal(err)
	}
	words := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	var rows [][]Value
	for i := range 40 {
		rows = append(rows, []Value{types.NewInt(int64(i)), types.NewString(words[(i*3)%len(words)])})
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// column returns column c of an answer's rows, rendered.
func column(res *Result, c int) []string {
	var out []string
	for _, row := range res.Rows {
		out = append(out, row[c].String())
	}
	return out
}

// TestOrderByStringIsLexical: strings are dictionary codes handed out
// in first-seen order, yet ORDER BY a string column sorts by the text,
// ascending and descending, with and without a LIMIT.
func TestOrderByStringIsLexical(t *testing.T) {
	db := stringsDB(t)
	for _, tc := range []struct {
		sql  string
		want []string
	}{
		{`SELECT t.s, COUNT(*) AS n FROM t t GROUP BY t.s ORDER BY t.s`, []string{"alpha", "bravo", "charlie", "delta", "echo"}},
		{`SELECT t.s, COUNT(*) AS n FROM t t GROUP BY t.s ORDER BY t.s DESC`, []string{"echo", "delta", "charlie", "bravo", "alpha"}},
		{`SELECT t.s, t.k FROM t t ORDER BY t.s LIMIT 3`, []string{"alpha", "alpha", "alpha"}},
		{`SELECT t.s, t.k FROM t t ORDER BY t.s DESC LIMIT 2`, []string{"echo", "echo"}},
	} {
		res, err := db.Exec(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := column(res, 0); !slices.Equal(got, tc.want) {
			t.Errorf("%s:\n got  %v\n want %v", tc.sql, got, tc.want)
		}
	}
}

// TestInsertedStringVisible: an InsertRows that brings a string no
// column held before is seen by the next query, as a group and as a
// filter literal, while a cached table over another table keeps
// answering, by exact reuse, exactly as before.
func TestInsertedStringVisible(t *testing.T) {
	db := stringsDB(t)
	if err := db.CreateTable("u", map[string]Kind{"g": types.String, "v": types.Int64}, []string{"g", "v"}); err != nil {
		t.Fatal(err)
	}
	var rows [][]Value
	for i := range 30 {
		rows = append(rows, []Value{types.NewString([]string{"x", "y", "z"}[i%3]), types.NewInt(int64(i))})
	}
	if err := db.InsertRows("u", rows); err != nil {
		t.Fatal(err)
	}
	const other = `SELECT u.g, SUM(u.v) AS total FROM u u GROUP BY u.g`
	before, err := db.Exec(other)
	if err != nil {
		t.Fatal(err)
	}
	const missing = `SELECT t.k FROM t t WHERE t.s = 'foxtrot'`
	if res, err := db.Exec(missing); err != nil || len(res.Rows) != 0 {
		t.Fatalf("before the insert: %v rows, %v", res, err)
	}

	if err := db.InsertRows("t", [][]Value{{types.NewInt(100), types.NewString("foxtrot")}}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(missing)
	if err != nil {
		t.Fatal(err)
	}
	if got := column(res, 0); !slices.Equal(got, []string{"100"}) {
		t.Errorf("filter on the inserted string: %v, want [100]", got)
	}
	res, err = db.Exec(`SELECT t.s, COUNT(*) AS n FROM t t GROUP BY t.s ORDER BY t.s`)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(column(res, 0), ","); got != "alpha,bravo,charlie,delta,echo,foxtrot" {
		t.Errorf("groups after the insert: %s", got)
	}

	after, err := db.Exec(other)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(canonical(after), canonical(before)) {
		t.Errorf("the untouched table answers %v after the insert, %v before", canonical(after), canonical(before))
	}
	if d := after.Decisions; len(d) != 1 || d[0].Action != 'S' {
		t.Errorf("the untouched table's aggregate was not reused: %+v", d)
	}
}
