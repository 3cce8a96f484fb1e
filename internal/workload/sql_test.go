package workload_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"hashstash/internal/catalog"
	"hashstash/internal/htcache"
	"hashstash/internal/optimizer"
	"hashstash/internal/sqlparser"
	"hashstash/internal/tpch"
	"hashstash/internal/types"
	"hashstash/internal/workload"
)

// TestStepSQLRoundTrip checks, for all four generators, that Step.SQL
// parses back to the step's query — the same logical query, with every
// filter predicate, no GROUP BY unless the query groups, and its ORDER
// BY and LIMIT — and that on a small TPC-H engine the parsed query
// answers the same as Step.Query.
func TestStepSQLRoundTrip(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{SF: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	for _, tbl := range db.Tables() {
		cat.Register(tbl)
	}
	opt := optimizer.New(cat, htcache.New(0), nil, optimizer.Options{Strategy: optimizer.NeverReuse})

	var explore []workload.Step
	for _, level := range []workload.Level{workload.Low, workload.High} {
		explore = append(explore, workload.Generate(workload.Config{Level: level, N: 16, Seed: 3})...)
	}
	gens := []struct {
		name  string
		steps []workload.Step
	}{
		{"explore", explore},
		{"skewed", workload.GenerateSkewed(workload.SkewConfig{N: 24, Shapes: 6, Seed: 5})},
		{"range", workload.GenerateRange(workload.RangeConfig{N: 16, TopK: 5, Seed: 7})},
		{"partitioned", workload.GeneratePartitioned(workload.PartitionedConfig{N: 24, CustKeys: 300, Seed: 9})},
	}
	for _, g := range gens {
		for i, st := range g.steps {
			sql := st.SQL()
			parsed, err := sqlparser.Parse(sql, cat)
			if err != nil {
				t.Fatalf("%s step %d: %v\n  %s", g.name, i, err, sql)
			}
			if parsed.String() != st.Query.String() {
				t.Fatalf("%s step %d: parsed back as\n  %v\nwant\n  %v", g.name, i, parsed, st.Query)
			}
			if st.Query.IsAggregate() != strings.Contains(sql, "GROUP BY") {
				t.Fatalf("%s step %d: GROUP BY present = %v for an aggregate = %v query: %s",
					g.name, i, !st.Query.IsAggregate(), st.Query.IsAggregate(), sql)
			}
			want, err := opt.Run(st.Query)
			if err != nil {
				t.Fatalf("%s step %d: %v", g.name, i, err)
			}
			got, err := opt.Run(parsed)
			if err != nil {
				t.Fatalf("%s step %d: %v\n  %s", g.name, i, err, sql)
			}
			want.Box()
			got.Box()
			if err := sameRows(want.Rows, got.Rows); err != nil {
				t.Fatalf("%s step %d: %v\n  %s", g.name, i, err, sql)
			}
		}
	}
}

// sameRows compares two results as multisets of rows, floats to a
// relative 1e-9.
func sameRows(want, got [][]types.Value) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	key := func(row []types.Value) string { return fmt.Sprint(row) }
	sorted := func(rows [][]types.Value) [][]types.Value {
		out := slices.Clone(rows)
		slices.SortFunc(out, func(a, b []types.Value) int { return strings.Compare(key(a), key(b)) })
		return out
	}
	w, g := sorted(want), sorted(got)
	for i := range w {
		if len(w[i]) != len(g[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(g[i]), len(w[i]))
		}
		for j := range w[i] {
			a, b := w[i][j], g[i][j]
			if a.Kind == types.Float64 && b.Kind == types.Float64 {
				if math.Abs(a.F-b.F) <= 1e-9*math.Max(math.Abs(a.F), math.Abs(b.F)) {
					continue
				}
			} else if a.Equal(b) {
				continue
			}
			return fmt.Errorf("row %d column %d = %v, want %v", i, j, b, a)
		}
	}
	return nil
}
