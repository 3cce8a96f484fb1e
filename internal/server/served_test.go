package server

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"hashstash"
	"hashstash/internal/workload"
)

// servedSF is the scale of the served-versus-library comparison.
const servedSF = 0.002

// servedWorkloads are the benchmark's four trace generators at
// servedSF: explore sessions, Zipf dashboard panels, export range scans
// with top-k, and sharded point lookups with scatter-gather ranges.
var servedWorkloads = []struct {
	name string
	gen  func(n int) []workload.Step
}{
	{"explore", func(n int) []workload.Step {
		levels := []workload.Level{workload.High, workload.Medium, workload.Low}
		var out []workload.Step
		for s := 0; len(out) < n; s++ {
			out = append(out, workload.Generate(workload.Config{Level: levels[s%3], N: 16, Seed: uint64(s) + 1})...)
		}
		return out[:n]
	}},
	{"dashboard", func(n int) []workload.Step {
		return workload.GenerateSkewed(workload.SkewConfig{N: n, Shapes: 12, S: 1.1, OneShotFrac: 0.2, Seed: 3})
	}},
	{"export", func(n int) []workload.Step {
		return workload.GenerateRange(workload.RangeConfig{N: n, Selectivity: 0.01, TopK: 100, Seed: 5})
	}},
	{"sharded", func(n int) []workload.Step {
		return workload.GeneratePartitioned(workload.PartitionedConfig{
			N: n, CrossShardFrac: 0.25, CustKeys: int64(150000 * servedSF), Seed: 7,
		})
	}},
}

// openServed opens a database loaded at servedSF on n shards, keyed the
// way the sharded benchmark daemon keys its tables. It runs each
// pipeline on one worker: float sums then add in one order, so two
// databases fed the same queries answer bit for bit alike.
func openServed(t *testing.T, shards int) *hashstash.DB {
	t.Helper()
	opts := []hashstash.Option{hashstash.WithTuning(hashstash.Tuning{Shards: shards, Parallelism: 1})}
	if shards > 1 {
		opts = append(opts,
			hashstash.WithPartitionKey("customer", "c_custkey"),
			hashstash.WithPartitionKey("orders", "o_custkey"),
			hashstash.WithPartitionKey("lineitem", "l_orderkey"))
	}
	return openTPCH(t, opts...)
}

// wireBody splits a POST /query success body into its rows (each row's
// JSON text) and the rest of the body.
func wireBody(t *testing.T, body []byte) (rows []string, rest string) {
	t.Helper()
	var resp map[string]json.RawMessage
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	var raw []json.RawMessage
	if err := json.Unmarshal(resp["rows"], &raw); err != nil {
		t.Fatalf("decode rows of %s: %v", body, err)
	}
	for _, r := range raw {
		rows = append(rows, string(r))
	}
	delete(resp, "rows")
	return rows, fmt.Sprint(resp)
}

// libraryBody encodes a library result's boxed Rows with encoding/json.
func libraryBody(t *testing.T, res *hashstash.Result, info QueryInfo) []byte {
	t.Helper()
	rows := make([][]any, len(res.Rows))
	for r, row := range res.Rows {
		rows[r] = make([]any, len(row))
		for c, v := range row {
			rows[r][c] = refCell(v)
		}
	}
	return refEncode(t, refQuery{Columns: res.Columns, Rows: rows, Batched: info.Batched, Mode: info.Mode})
}

// sameBody checks a served body against the library's: byte-equal for
// an ordered query, equal as a multiset of rows otherwise.
func sameBody(t *testing.T, label string, q *hashstash.Query, served, library []byte) {
	t.Helper()
	if q.OrderBy != nil {
		if string(served) != string(library) {
			t.Fatalf("%s: served\n%s\nlibrary\n%s", label, served, library)
		}
		return
	}
	sr, srest := wireBody(t, served)
	lr, lrest := wireBody(t, library)
	slices.Sort(sr)
	slices.Sort(lr)
	if srest != lrest || !slices.Equal(sr, lr) {
		t.Fatalf("%s: served\n%s\nlibrary\n%s", label, served, library)
	}
}

// TestServedAnswersEqualLibrary: for each benchmark workload's queries,
// on one and two shards, the body the server encodes from a served
// query's columns equals the body encoding/json writes for the same
// query's boxed rows from DB.ExecParsed. Each side runs on its own
// database fed the same query sequence, so both plan against the same
// cache states.
func TestServedAnswersEqualLibrary(t *testing.T) {
	const n = 40
	ctx := context.Background()
	for _, shards := range []int{1, 2} {
		for _, w := range servedWorkloads {
			t.Run(fmt.Sprintf("%s/shards=%d", w.name, shards), func(t *testing.T) {
				served, library := openServed(t, shards), openServed(t, shards)
				srv := New(served, Config{})
				defer srv.Close()
				steps := w.gen(n)

				for i, st := range steps {
					res, info, err := srv.solo(ctx, st.Query)
					if err != nil {
						t.Fatalf("solo %d: %v", i, err)
					}
					want, err := library.ExecParsed(ctx, st.Query)
					if err != nil {
						t.Fatalf("library %d: %v", i, err)
					}
					if res.Rows != nil {
						t.Fatalf("solo %d: the served answer was boxed", i)
					}
					sameBody(t, fmt.Sprintf("solo %d", i), st.Query,
						appendResult(nil, res, info, false), libraryBody(t, want, info))
				}
			})
		}
	}
}
