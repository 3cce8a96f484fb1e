package shard

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hashstash/internal/exec"
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

// TestPlanExchangesValid: every placement the planner returns is
// anchored on one join equivalence class (countViolations == 0), keeps a
// fragmented relation whenever the base layout has one, and marks as
// moved exactly the relations whose placement differs from the base.
func TestPlanExchangesValid(t *testing.T) {
	forEachExchangeCase(t, func(t *testing.T, e *Engine, q *plan.Query) {
		pl := e.planExchanges(q)
		if len(pl) != len(q.Relations) {
			t.Fatalf("%d placements for %d relations", len(pl), len(q.Relations))
		}
		if v := countViolations(q, pl, plan.JoinClasses(q)); v != 0 {
			t.Fatalf("placement %+v has %d violations", pl, v)
		}
		baseFrag, frag := false, false
		for i, rel := range q.Relations {
			key, partitioned := e.keys[rel.Table]
			baseFrag = baseFrag || partitioned
			frag = frag || pl[i].fragCol != ""
			if pl[i].moved != (pl[i].fragCol != key) {
				t.Errorf("relation %s: placement %+v against declared key %q", rel.Alias, pl[i], key)
			}
			if pl[i].broadcast && pl[i].fragCol != "" {
				t.Errorf("relation %s: broadcast placement keyed on %q", rel.Alias, pl[i].fragCol)
			}
		}
		if baseFrag && !frag {
			t.Errorf("placement %+v fragments no relation: every shard would produce every tuple", pl)
		}
	})
}

// rowStrings renders the rows sel of t.
func rowStrings(t *storage.Table, sel []int32) []string {
	out := make([]string, len(sel))
	for i, r := range sel {
		for _, c := range t.Cols {
			out[i] += c.Value(int(r)).String() + "|"
		}
	}
	return out
}

func allRows(t *storage.Table) []int32 {
	sel := make([]int32, t.NumRows())
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// TestApplyExchangesRowMultisets: each exchange temporary holds exactly
// the filtered relation's rows — a repartitioned one each row once, on
// the shard storage.ShardOf assigns its key; a broadcast one all of
// them on every shard. The rewritten query reads the temporaries and
// drops the moved relations' predicates. dropTemps leaves no temporary
// registered.
func TestApplyExchangesRowMultisets(t *testing.T) {
	modes := map[string]bool{}
	forEachExchangeCase(t, func(t *testing.T, e *Engine, q *plan.Query) {
		pl := e.planExchanges(q)
		qr, temps, err := e.applyExchanges(q, pl)
		if err != nil {
			t.Fatal(err)
		}
		n := e.Shards()
		for i, rel := range q.Relations {
			if !pl[i].moved {
				if qr.Relations[i].Table != rel.Table {
					t.Errorf("unmoved relation %s retargeted at %q", rel.Alias, qr.Relations[i].Table)
				}
				continue
			}
			temp := qr.Relations[i].Table
			if !strings.HasPrefix(temp, "__exch") {
				t.Fatalf("moved relation %s reads %q", rel.Alias, temp)
			}
			for _, p := range qr.Filter {
				if p.Col.Table == rel.Alias {
					t.Errorf("rewritten filter keeps predicate %v of moved relation %s", p, rel.Alias)
				}
			}
			full, err := e.GatherTable(rel.Table)
			if err != nil {
				t.Fatal(err)
			}
			sel, err := exec.FilterTable(full, q.FilterFor(rel.Alias))
			if err != nil {
				t.Fatal(err)
			}
			want := rowStrings(full, sel)
			sort.Strings(want)
			var union []string
			for s := 0; s < n; s++ {
				tt := e.Shard(s).Cat.Table(temp)
				if tt == nil {
					t.Fatalf("shard %d has no temporary %q", s, temp)
				}
				got := rowStrings(tt, allRows(tt))
				if pl[i].broadcast {
					sort.Strings(got)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("broadcast %s on shard %d: %d rows, want the %d filtered rows", rel.Alias, s, len(got), len(want))
					}
					continue
				}
				key := tt.Column(pl[i].fragCol)
				for r := range tt.NumRows() {
					if home := storage.ShardOf(key.Value(r), n); home != s {
						t.Fatalf("repartitioned %s row %d on shard %d, key hashes to %d", rel.Alias, r, s, home)
					}
				}
				union = append(union, got...)
			}
			if pl[i].broadcast {
				modes["broadcast"] = true
				continue
			}
			modes["repartition"] = true
			sort.Strings(union)
			if !reflect.DeepEqual(union, want) {
				t.Fatalf("repartitioned %s: shards hold %d rows, want the %d filtered rows once each", rel.Alias, len(union), len(want))
			}
		}
		e.dropTemps(temps)
		for s := 0; s < n; s++ {
			for _, name := range e.Shard(s).Cat.TableNames() {
				if strings.HasPrefix(name, "__exch") {
					t.Errorf("shard %d still registers %q after dropTemps", s, name)
				}
			}
		}
	})
	if !modes["broadcast"] || !modes["repartition"] {
		t.Errorf("exchange modes exercised: %v, want both", modes)
	}
}

// TestScatterDropsTemps runs the exchanging queries end to end: answers
// match a one-shard engine's, and after each query no shard registers
// an exchange temporary or holds a cached artifact built over one,
// although the legs did build and cache such artifacts during the run.
func TestScatterDropsTemps(t *testing.T) {
	ctx := context.Background()
	ref := exchangeEngine(t, 1, false)
	var dropped int64
	forEachExchangeCase(t, func(t *testing.T, e *Engine, q *plan.Query) {
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
		after, _ := e.Stats()
		dropped += after.Evictions - before.Evictions
		for s := 0; s < e.Shards(); s++ {
			sh := e.Shard(s)
			for _, name := range sh.Cat.TableNames() {
				if strings.HasPrefix(name, "__exch") {
					t.Errorf("shard %d still registers %q", s, name)
				}
			}
			for id := range sh.Cache.Stats().Registered {
				ent := sh.Cache.Get(id)
				if ent == nil {
					continue
				}
				for _, tbl := range ent.Lineage.Tables {
					if strings.HasPrefix(tbl, "__exch") {
						t.Errorf("shard %d still caches entry %d over %q", s, id, tbl)
					}
				}
			}
			if err := sh.Cache.CheckInvariants(); err != nil {
				t.Error(err)
			}
		}
	})
	if dropped == 0 {
		t.Error("no exchange temporary ever had a cached artifact to drop")
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
