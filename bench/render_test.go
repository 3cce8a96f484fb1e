package main

import (
	"context"
	"testing"

	"hashstash"
	"hashstash/internal/workload"
)

// TestRenderRoundTrip checks, for every generator a workload uses, that
// the rendered SQL parses back to the generated query: same logical
// query, same answer on the reference engine.
func TestRenderRoundTrip(t *testing.T) {
	ref, err := newReference(quickSF)
	if err != nil {
		t.Fatal(err)
	}
	sc := scale{sf: quickSF, quick: true}
	ctx := context.Background()
	for _, s := range specs {
		var steps []workload.Step
		for seed := uint64(1); seed <= 3; seed++ {
			steps = append(steps, s.gen(seed, 40, sc)...)
		}
		for i, st := range steps {
			sql, err := renderSQL(st.Query)
			if err != nil {
				t.Fatalf("%s query %d: %v", s.name, i, err)
			}
			parsed, err := ref.db.Parse(sql)
			if err != nil {
				t.Fatalf("%s query %d: %v\n  %s", s.name, i, err, sql)
			}
			if parsed.String() != st.Query.String() {
				t.Fatalf("%s query %d: parsed back as\n  %v\nwant\n  %v", s.name, i, parsed, st.Query)
			}
			want, err := ref.db.ExecParsed(ctx, st.Query)
			if err != nil {
				t.Fatalf("%s query %d: %v", s.name, i, err)
			}
			got, err := ref.db.ExecParsed(ctx, parsed)
			if err != nil {
				t.Fatalf("%s query %d: %v\n  %s", s.name, i, err, sql)
			}
			wantRows, isFloat := answerOf(want)
			gotRows, _ := answerOf(got)
			if err := sameAnswer(st.Query, wantRows, gotRows, isFloat); err != nil {
				t.Fatalf("%s query %d: %v\n  %s", s.name, i, err, sql)
			}
		}
	}
}

// TestSameAnswer pins the comparison the benchmark's correctness check
// rests on.
func TestSameAnswer(t *testing.T) {
	ref, err := newReference(quickSF)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ref.db.Parse("SELECT c.c_age, SUM(o.o_totalprice) AS spend FROM customer c, orders o WHERE c.c_custkey = o.o_custkey GROUP BY c.c_age")
	if err != nil {
		t.Fatal(err)
	}
	topK, err := ref.db.Parse("SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l ORDER BY l.l_extendedprice DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	isFloat := []bool{false, true}
	want := answer{{30.0, 100.0}, {31.0, 250.5}}
	for _, tc := range []struct {
		name string
		q    *hashstash.Query
		got  answer
		same bool
	}{
		{"reordered rows", plain, answer{{31.0, 250.5}, {30.0, 100.0}}, true},
		{"last-bit float difference", plain, answer{{30.0, 100.0 * (1 + 1e-12)}, {31.0, 250.5}}, true},
		{"float off by 1e-6", plain, answer{{30.0, 100.0001}, {31.0, 250.5}}, false},
		{"group key differs", plain, answer{{30.0, 100.0}, {32.0, 250.5}}, false},
		{"missing row", plain, answer{{30.0, 100.0}}, false},
		{"top-k: other columns may differ on ties", topK, answer{{7.0, 100.0}, {8.0, 250.5}}, true},
		{"top-k: order column is compared in order", topK, answer{{31.0, 250.5}, {30.0, 100.0}}, false},
	} {
		err := sameAnswer(tc.q, want, tc.got, isFloat)
		if (err == nil) != tc.same {
			t.Errorf("%s: same = %v, want %v (%v)", tc.name, err == nil, tc.same, err)
		}
	}
}
