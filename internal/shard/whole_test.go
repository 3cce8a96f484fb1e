package shard

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// exchangeEngine loads three tables whose declared keys disagree with
// most of exchangeQueries' join columns: fa by k, fb by y, and fc by z
// (or replicated when fcKey is false).
func exchangeEngine(t *testing.T, n int, fcKey bool) *Engine {
	t.Helper()
	e := newEngine(n)
	if n > 1 {
		e.DeclarePartitionKey("fa", "k")
		e.DeclarePartitionKey("fb", "y")
		if fcKey {
			e.DeclarePartitionKey("fc", "z")
		}
	}
	fa := storage.NewTable("fa", storage.NewColumn("k", types.Int64), storage.NewColumn("x", types.Int64), storage.NewColumn("v", types.Float64))
	for i := 0; i < 600; i++ {
		fa.AppendRow(types.NewInt(int64(i)), types.NewInt(int64(i%50)), types.NewFloat(float64(i%97)))
	}
	fb := storage.NewTable("fb", storage.NewColumn("k", types.Int64), storage.NewColumn("y", types.Int64), storage.NewColumn("s", types.String))
	for i := 0; i < 500; i++ {
		fb.AppendRow(types.NewInt(int64(i%300)), types.NewInt(int64(i%80)), types.NewString(fmt.Sprintf("s%d", i%9)))
	}
	fc := storage.NewTable("fc", storage.NewColumn("y", types.Int64), storage.NewColumn("z", types.Int64))
	for i := 0; i < 200; i++ {
		fc.AppendRow(types.NewInt(int64(i%80)), types.NewInt(int64(i%11)))
	}
	for _, tbl := range []*storage.Table{fa, fb, fc} {
		if err := e.LoadTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

var exchangeQueries = []string{
	`SELECT a.k, b.y FROM fa a, fb b WHERE a.k = b.k AND b.y < 40`,
	`SELECT a.k, b.s FROM fa a, fb b WHERE a.x = b.y AND a.v < 50`,
	`SELECT a.k, c.z FROM fa a, fb b, fc c WHERE a.k = b.k AND b.y = c.y AND c.z >= 3`,
	`SELECT b.s, COUNT(*) AS n FROM fa a, fb b WHERE a.x = b.k GROUP BY b.s`,
	`SELECT a.k, b.s FROM fa a, fb b WHERE a.k = b.y AND a.x < 20`,
	`SELECT c.z, SUM(a.v) AS sv FROM fa a, fc c WHERE a.x = c.y AND a.k < 500 GROUP BY c.z`,
}

// forEachExchangeCase runs f over every query at two and three shards,
// with fc replicated and partitioned.
func forEachExchangeCase(t *testing.T, f func(t *testing.T, e *Engine, q *plan.Query)) {
	for _, n := range []int{2, 3} {
		for _, fcKey := range []bool{false, true} {
			e := exchangeEngine(t, n, fcKey)
			for qi, sql := range exchangeQueries {
				t.Run(fmt.Sprintf("shards=%d/fcKey=%v/q%d", n, fcKey, qi), func(t *testing.T) {
					f(t, e, mustParse(t, e, sql))
				})
			}
		}
	}
}

// TestNotCoPartitionedRunsWhole: a query that countViolations finds
// co-partitioned scatters, one leg per shard; any other runs as one plan
// on shard 0 — only shard 0's query counter moves — and, run a second
// time, reuses the hash tables its first run left in shard 0's cache.
func TestNotCoPartitionedRunsWhole(t *testing.T) {
	ctx := context.Background()
	whole := 0
	forEachExchangeCase(t, func(t *testing.T, e *Engine, q *plan.Query) {
		co := countViolations(q, e.keys) == 0
		for run := 0; run < 2; run++ {
			hits, counts := e.Shard(0).Cache.Stats().Hits, e.QueryCounts()
			if _, err := e.RunContext(ctx, q); err != nil {
				t.Fatal(err)
			}
			for s, c := range e.QueryCounts() {
				want := int64(0)
				if co || s == 0 {
					want = 1
				}
				if c-counts[s] != want {
					t.Fatalf("run %d (co-partitioned %v): shard %d counted %d queries, want %d", run, co, s, c-counts[s], want)
				}
			}
			if !co && run == 1 && e.Shard(0).Cache.Stats().Hits == hits {
				t.Error("the second run on the whole tables hit no cached hash table")
			}
		}
		if !co {
			whole++
		}
	})
	if whole == 0 {
		t.Error("no case ran on the whole tables")
	}
}

// TestWholeTableRows: every partitioned table a query reads is stored
// once. Its whole table holds exactly the loaded rows, and fragment s is
// the whole table's row range s, in shard order, sharing its storage.
func TestWholeTableRows(t *testing.T) {
	ref := exchangeEngine(t, 1, false)
	forEachExchangeCase(t, func(t *testing.T, e *Engine, q *plan.Query) {
		for _, rel := range q.Relations {
			if _, partitioned := e.keys[rel.Table]; !partitioned {
				continue
			}
			whole, err := e.GatherTable(rel.Table)
			if err != nil {
				t.Fatal(err)
			}
			if whole != e.Shard(0).Cat.Table(wholeName(rel.Table)) {
				t.Fatalf("GatherTable(%q) is not shard 0's whole table", rel.Table)
			}
			loaded, _ := ref.GatherTable(rel.Table)
			if got, want := multiset(whole), multiset(loaded); !reflect.DeepEqual(got, want) {
				t.Fatalf("whole %s holds %d rows, want the %d loaded", rel.Table, len(got), len(want))
			}
			lo := 0
			for s := 0; s < e.Shards(); s++ {
				frag := e.Shard(s).Cat.Table(rel.Table)
				hi := lo + frag.NumRows()
				for ci, col := range frag.Cols {
					if frag.NumRows() > 0 && !sharesRow(col, whole.Cols[ci], lo) {
						t.Fatalf("%s fragment %d column %s is not rows [%d, %d) of the whole table", rel.Table, s, col.Name, lo, hi)
					}
				}
				lo = hi
			}
			if lo != whole.NumRows() {
				t.Fatalf("%s fragments hold %d rows, the whole table %d", rel.Table, lo, whole.NumRows())
			}
		}
	})
}

// sharesRow reports whether frag's first cell is the cell at row r of
// whole itself, not a copy of it.
func sharesRow(frag, whole *storage.Column, r int) bool {
	switch frag.Kind {
	case types.Float64:
		return &frag.Floats[0] == &whole.Floats[r]
	case types.String:
		return &frag.Strs[0] == &whole.Strs[r]
	}
	return &frag.Ints[0] == &whole.Ints[r]
}

// TestScatterDropsTemps runs the queries end to end: answers match a
// one-shard engine's, and no query leaves a temporary behind. After each
// query every shard's catalog registers exactly the tables it held
// before, every cached artifact is built over tables of its shard's
// catalog, no artifact was evicted — a run over the whole tables leaves
// its hash tables cached — and every shard's cache keeps its invariants.
func TestScatterDropsTemps(t *testing.T) {
	ctx := context.Background()
	ref := exchangeEngine(t, 1, false)
	forEachExchangeCase(t, func(t *testing.T, e *Engine, q *plan.Query) {
		names := make([][]string, e.Shards())
		for s := range names {
			names[s] = e.Shard(s).Cat.TableNames()
		}
		before, _ := e.Stats()
		got, err := e.RunContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.RunContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := canonicalRows(boxed(got)), canonicalRows(boxed(want)); !reflect.DeepEqual(a, b) {
			t.Fatalf("sharded answer has %d rows, one shard %d", len(a), len(b))
		}
		if after, _ := e.Stats(); after.Evictions != before.Evictions {
			t.Errorf("the query evicted %d cached artifacts", after.Evictions-before.Evictions)
		}
		for s := 0; s < e.Shards(); s++ {
			sh := e.Shard(s)
			if got := sh.Cat.TableNames(); !slices.Equal(got, names[s]) {
				t.Errorf("shard %d registers %v after the query, %v before", s, got, names[s])
			}
			for id := range sh.Cache.Stats().Registered {
				ent := sh.Cache.Get(id)
				if ent == nil {
					continue
				}
				for _, tbl := range ent.Lineage.Tables {
					if sh.Cat.Table(tbl) == nil {
						t.Errorf("shard %d caches entry %d over %q, which it does not register", s, id, tbl)
					}
				}
			}
			if err := sh.Cache.CheckInvariants(); err != nil {
				t.Error(err)
			}
		}
	})
}

// TestWholeTableFollowsWrites: InsertRows and Repartition keep the
// whole tables in step with the fragments. Each query runs once to warm
// shard 0's cache over the whole tables; after rows are inserted into
// every partitioned table, and again after the tables are re-keyed —
// which leaves shard 0 no artifact over the old whole tables — every
// answer equals a one-shard engine's.
func TestWholeTableFollowsWrites(t *testing.T) {
	ctx := context.Background()
	insert := map[string][][]types.Value{}
	for i := 600; i < 700; i++ {
		insert["fa"] = append(insert["fa"], []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 50)), types.NewFloat(float64(i % 13))})
		insert["fb"] = append(insert["fb"], []types.Value{types.NewInt(int64(i % 350)), types.NewInt(int64(i % 80)), types.NewString("new")})
		insert["fc"] = append(insert["fc"], []types.Value{types.NewInt(int64(i % 80)), types.NewInt(int64(i % 11))})
	}
	ref := exchangeEngine(t, 1, false)
	for table, rows := range insert {
		if err := ref.InsertRows(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{2, 3} {
		e := exchangeEngine(t, n, true)
		check := func(stage string) {
			for qi, sql := range exchangeQueries {
				q := mustParse(t, e, sql)
				got, err := e.RunContext(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.RunContext(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if a, b := canonicalRows(boxed(got)), canonicalRows(boxed(want)); !reflect.DeepEqual(a, b) {
					t.Errorf("shards=%d %s q%d: %d rows, one shard %d", n, stage, qi, len(a), len(b))
				}
			}
		}
		for _, sql := range exchangeQueries {
			if _, err := e.RunContext(ctx, mustParse(t, e, sql)); err != nil {
				t.Fatal(err)
			}
		}
		for table, rows := range insert {
			if err := e.InsertRows(table, rows); err != nil {
				t.Fatal(err)
			}
		}
		check("after InsertRows")
		for table, key := range map[string]string{"fa": "x", "fb": "k", "fc": "y"} {
			if err := e.Repartition(table, key); err != nil {
				t.Fatal(err)
			}
		}
		sh := e.Shard(0)
		for id := range sh.Cache.Stats().Registered {
			if ent := sh.Cache.Get(id); ent != nil && slices.ContainsFunc(ent.Lineage.Tables, func(tbl string) bool { return strings.HasSuffix(tbl, wholeSuffix) }) {
				t.Errorf("shards=%d: shard 0 still caches entry %d over %v after Repartition", n, id, ent.Lineage.Tables)
			}
		}
		check("after Repartition")
	}
}

// boxed is a result's answer boxed row by row: the one way tests read
// an answer as rows.
func boxed(r *optimizer.Result) [][]types.Value {
	r.Box()
	return r.Rows
}

// canonicalRows renders result rows order-independently; float sums
// are rounded, since shards add in a different order.
func canonicalRows(rows [][]types.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		for _, v := range row {
			if v.Kind == types.Float64 {
				out[i] += fmt.Sprintf("%.6f|", v.F)
				continue
			}
			out[i] += v.String() + "|"
		}
	}
	sort.Strings(out)
	return out
}
