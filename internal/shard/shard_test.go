package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"hashstash/hashstasherr"
	"hashstash/internal/catalog"
	"hashstash/internal/exec"
	"hashstash/internal/htcache"
	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/sqlparser"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// newEngine assembles an n-shard router the way hashstash.Open does.
func newEngine(n int) *Engine {
	shards := make([]*Shard, n)
	for s := range shards {
		cat, cache := catalog.New(), htcache.New(0)
		shards[s] = &Shard{ID: s, Cat: cat, Cache: cache,
			Opt: optimizer.New(cat, cache, nil, optimizer.Options{})}
	}
	return New(shards, exec.Parallelism{})
}

// newTable builds pt(k, g, v) with rows k = from..to-1.
func newTable(from, to int) *storage.Table {
	t := storage.NewTable("pt",
		storage.NewColumn("k", types.Int64),
		storage.NewColumn("g", types.Int64),
		storage.NewColumn("v", types.Float64))
	for _, row := range rowsOf(from, to) {
		t.AppendRow(row...)
	}
	return t
}

func rowsOf(from, to int) [][]types.Value {
	var rows [][]types.Value
	for k := from; k < to; k++ {
		rows = append(rows, []types.Value{
			types.NewInt(int64(k)), types.NewInt(int64(k % 7)), types.NewFloat(float64(k) / 4)})
	}
	return rows
}

// multiset renders a table's rows order-independently.
func multiset(t *storage.Table) []string {
	out := make([]string, t.NumRows())
	for r := range out {
		for _, c := range t.Cols {
			out[r] += c.Value(r).String() + "|"
		}
	}
	sort.Strings(out)
	return out
}

func mustParse(t *testing.T, e *Engine, sql string) *plan.Query {
	t.Helper()
	q, err := sqlparser.Parse(sql, e.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestRouterOfOne: a one-shard router pins every query to shard 0,
// answers exactly as that shard's optimizer does, and counts every
// query it runs.
func TestRouterOfOne(t *testing.T) {
	e := newEngine(1)
	if err := e.LoadTable(newTable(0, 500)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, sql := range []string{
		`SELECT p.g, COUNT(*) AS n, SUM(p.v) AS s FROM pt p GROUP BY p.g`,
		`SELECT p.k, p.v FROM pt p WHERE p.k = 42`,
		`SELECT p.k, p.v FROM pt p WHERE p.k >= 100 AND p.k < 140 ORDER BY p.v DESC LIMIT 5`,
		`SELECT a.k, b.v FROM pt a, pt b WHERE a.k = b.k AND a.g = 3`,
	} {
		q := mustParse(t, e, sql)
		if _, s := e.route(q); s != 0 {
			t.Fatalf("%s: routed to %d, want shard 0", sql, s)
		}
		got, err := e.RunContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Shard(0).Opt.RunContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || fmt.Sprint(boxed(got)) != fmt.Sprint(boxed(want)) {
			t.Errorf("%s: router result differs from the shard optimizer's", sql)
		}
		// Only the routed run counts: the direct optimizer call bypasses
		// the router.
		if c := e.QueryCounts(); len(c) != 1 || c[0] != int64(i+1) {
			t.Errorf("after %d routed queries: counts %v", i+1, c)
		}
	}
}

// TestPlacementRoundTrip: load, insert, gather and repartition keep the
// table's row multiset at one shard and at three, and a one-shard load
// registers the caller's table itself rather than a copy.
func TestPlacementRoundTrip(t *testing.T) {
	want := multiset(newTable(0, 400))
	for _, n := range []int{1, 3} {
		for _, declared := range []bool{false, true} {
			if n == 1 && declared {
				continue // a one-shard database declares no keys
			}
			name := fmt.Sprintf("shards=%d/declared=%v", n, declared)
			e := newEngine(n)
			if declared {
				e.DeclarePartitionKey("pt", "k")
			}
			loaded := newTable(0, 300)
			if err := e.LoadTable(loaded); err != nil {
				t.Fatal(err)
			}
			if !declared {
				for s := 0; s < n; s++ {
					if e.Shard(s).Cat.Table("pt") != loaded {
						t.Errorf("%s: shard %d holds a copy of an undeclared table", name, s)
					}
				}
			}
			if err := e.InsertRows("pt", rowsOf(300, 400)); err != nil {
				t.Fatal(err)
			}
			check := func(stage string) {
				t.Helper()
				full, err := e.GatherTable("pt")
				if err != nil {
					t.Fatal(err)
				}
				if got := multiset(full); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %s: gathered %d rows, want the %d loaded+inserted", name, stage, len(got), len(want))
				}
				total := 0
				for s := 0; s < n; s++ {
					total += e.Shard(s).Cat.Table("pt").NumRows()
				}
				if _, partitioned := e.PartitionKey("pt"); !partitioned {
					total /= n // every shard sees the one replica
				}
				if total != len(want) {
					t.Errorf("%s: %s: placements hold %d rows, want %d", name, stage, total, len(want))
				}
			}
			check("after insert")
			if n > 1 {
				// Re-key (or first-time partition) by another column.
				if err := e.Repartition("pt", "g"); err != nil {
					t.Fatal(err)
				}
				check("after repartition")
				for s := 0; s < n; s++ {
					frag := e.Shard(s).Cat.Table("pt")
					for r := 0; r < frag.NumRows(); r++ {
						if storage.ShardOf(frag.Column("g").Value(r), n) != s {
							t.Fatalf("%s: shard %d holds a row of another shard", name, s)
						}
					}
				}
			}
		}
	}
	if err := newEngine(1).InsertRows("nope", nil); !errors.Is(err, hashstasherr.ErrUnknownTable) {
		t.Errorf("InsertRows on an unknown table: %v, want ErrUnknownTable", err)
	}
}
