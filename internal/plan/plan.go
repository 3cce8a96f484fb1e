// Package plan defines the logical query representation of HashStash:
// SPJ / SPJA blocks over a join graph of aliased base relations, with
// conjunctive box predicates, group-by columns and aggregate lists. The
// reuse-aware optimizer enumerates partitions of the join graph defined
// here.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"hashstash/hashstasherr"
	"hashstash/internal/catalog"
	"hashstash/internal/expr"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Rel is one aliased base relation in the FROM list.
type Rel struct {
	Alias string
	Table string
}

// JoinPred is an equi-join between two aliased columns.
type JoinPred struct {
	Left  storage.ColRef
	Right storage.ColRef
}

// String renders the join predicate.
func (j JoinPred) String() string { return j.Left.String() + " = " + j.Right.String() }

// Query is a single SPJ or SPJA block.
type Query struct {
	Relations []Rel
	Joins     []JoinPred
	// Filter is the conjunction of all single-column selection
	// predicates, alias-qualified.
	Filter expr.Box
	// Select lists plain projection columns. For SPJA queries these must
	// be a subset of GroupBy.
	Select []storage.ColRef
	// GroupBy and Aggs are set for SPJA blocks.
	GroupBy []storage.ColRef
	Aggs    []expr.AggSpec
	// OrderBy orders the result by one selected column; Limit truncates
	// it (0 = no limit). Together they express the top-k shape that an
	// ordered secondary index can answer without sorting.
	OrderBy *OrderSpec
	Limit   int
}

// OrderSpec is the ORDER BY clause: one selected column, ascending by
// default.
type OrderSpec struct {
	Col  storage.ColRef
	Desc bool
}

// IsAggregate reports whether the query has an aggregation block.
func (q *Query) IsAggregate() bool { return len(q.Aggs) > 0 || len(q.GroupBy) > 0 }

// RelByAlias returns the relation with the given alias, or nil.
func (q *Query) RelByAlias(alias string) *Rel {
	for i := range q.Relations {
		if q.Relations[i].Alias == alias {
			return &q.Relations[i]
		}
	}
	return nil
}

// AliasIndex returns the position of alias in Relations, or -1.
func (q *Query) AliasIndex(alias string) int {
	for i := range q.Relations {
		if q.Relations[i].Alias == alias {
			return i
		}
	}
	return -1
}

// FilterFor returns the filter predicates restricted to one alias.
func (q *Query) FilterFor(alias string) expr.Box {
	var out expr.Box
	for _, p := range q.Filter {
		if p.Col.Table == alias {
			out = append(out, p)
		}
	}
	return out
}

// Validate resolves every reference against the catalog and checks the
// structural rules (unique aliases, join columns exist, select ⊆ group
// by for aggregates, connected join graph).
func (q *Query) Validate(cat *catalog.Catalog) error {
	if len(q.Relations) == 0 {
		return fmt.Errorf("plan: query has no relations")
	}
	seen := map[string]bool{}
	for _, r := range q.Relations {
		if seen[r.Alias] {
			return fmt.Errorf("plan: duplicate alias %q", r.Alias)
		}
		seen[r.Alias] = true
		if cat.Table(r.Table) == nil {
			return fmt.Errorf("plan: %w %q", hashstasherr.ErrUnknownTable, r.Table)
		}
	}
	resolve := func(ref storage.ColRef) (types.Kind, error) {
		rel := q.RelByAlias(ref.Table)
		if rel == nil {
			return 0, fmt.Errorf("plan: %w: unknown alias %q in %v", hashstasherr.ErrUnknownColumn, ref.Table, ref)
		}
		return cat.Resolve(rel.Table, ref.Column)
	}
	for _, j := range q.Joins {
		lk, err := resolve(j.Left)
		if err != nil {
			return err
		}
		rk, err := resolve(j.Right)
		if err != nil {
			return err
		}
		if lk != rk {
			return fmt.Errorf("plan: join %v compares %v to %v", j, lk, rk)
		}
	}
	for _, p := range q.Filter {
		k, err := resolve(p.Col)
		if err != nil {
			return err
		}
		if (k == types.String) != (p.Con.Kind == types.String) {
			return fmt.Errorf("plan: predicate on %v has wrong constraint kind", p.Col)
		}
	}
	for _, ref := range q.Select {
		if _, err := resolve(ref); err != nil {
			return err
		}
	}
	for _, ref := range q.GroupBy {
		if _, err := resolve(ref); err != nil {
			return err
		}
	}
	if q.IsAggregate() {
		for _, s := range q.Select {
			found := false
			for _, g := range q.GroupBy {
				if s == g {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("plan: select column %v not in GROUP BY", s)
			}
		}
	}
	for _, a := range q.Aggs {
		if a.Arg == nil {
			continue
		}
		var err error
		a.Arg.Walk(func(ref storage.ColRef) {
			if _, e := resolve(ref); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			return err
		}
	}
	if q.OrderBy != nil {
		if _, err := resolve(q.OrderBy.Col); err != nil {
			return err
		}
		// The order column must be selected: the result sorter (and the
		// index-order fast path) orders the projected rows.
		found := false
		for _, s := range q.Select {
			if s == q.OrderBy.Col {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("plan: ORDER BY column %v not in SELECT", q.OrderBy.Col)
		}
	}
	if q.Limit < 0 {
		return fmt.Errorf("plan: negative LIMIT %d", q.Limit)
	}
	if len(q.Relations) > 1 && !q.connected(cat) {
		return fmt.Errorf("plan: join graph is not connected")
	}
	return nil
}

func (q *Query) connected(*catalog.Catalog) bool {
	n := len(q.Relations)
	adj := make([][]int, n)
	for _, j := range q.Joins {
		a, b := q.AliasIndex(j.Left.Table), q.AliasIndex(j.Right.Table)
		if a < 0 || b < 0 || a == b {
			continue
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// String renders the query as SQL-ish text.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	var items []string
	for _, s := range q.Select {
		items = append(items, s.String())
	}
	for _, a := range q.Aggs {
		items = append(items, a.String())
	}
	if len(items) == 0 {
		items = []string{"*"}
	}
	b.WriteString(strings.Join(items, ", "))
	b.WriteString(" FROM ")
	var rels []string
	for _, r := range q.Relations {
		rels = append(rels, r.Table+" "+r.Alias)
	}
	b.WriteString(strings.Join(rels, ", "))
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, j.String())
	}
	for _, p := range q.Filter {
		conds = append(conds, p.String())
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if len(q.GroupBy) > 0 {
		var g []string
		for _, ref := range q.GroupBy {
			g = append(g, ref.String())
		}
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(g, ", "))
	}
	if q.OrderBy != nil {
		b.WriteString(" ORDER BY ")
		b.WriteString(q.OrderBy.Col.String())
		if q.OrderBy.Desc {
			b.WriteString(" DESC")
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

// JoinGraphSignature canonically describes the join structure of a set
// of relations: sorted base table names plus sorted base-qualified join
// edges. Two queries are structurally mergeable / their sub-plans
// comparable when signatures match (aliases do not matter).
func (q *Query) JoinGraphSignature() string {
	return q.SubgraphSignature((1 << uint(len(q.Relations))) - 1)
}

// SubgraphSignature is JoinGraphSignature restricted to the relations in
// the bitmask (bit i = Relations[i]).
func (q *Query) SubgraphSignature(mask int) string {
	var tables []string
	for i, r := range q.Relations {
		if mask&(1<<uint(i)) != 0 {
			tables = append(tables, r.Table)
		}
	}
	sort.Strings(tables)
	var edges []string
	for _, j := range q.Joins {
		a, b := q.AliasIndex(j.Left.Table), q.AliasIndex(j.Right.Table)
		if a < 0 || b < 0 || mask&(1<<uint(a)) == 0 || mask&(1<<uint(b)) == 0 {
			continue
		}
		l := q.Relations[a].Table + "." + j.Left.Column
		r := q.Relations[b].Table + "." + j.Right.Column
		if l > r {
			l, r = r, l
		}
		edges = append(edges, l+"="+r)
	}
	sort.Strings(edges)
	return strings.Join(tables, ",") + "|" + strings.Join(edges, "&")
}

// BaseQualify translates an alias-qualified box to base-table
// qualification using the query's alias map (lineage is stored
// base-qualified so that reuse works across queries with different
// aliases).
func (q *Query) BaseQualify(box expr.Box) expr.Box {
	out := make(expr.Box, 0, len(box))
	for _, p := range box {
		rel := q.RelByAlias(p.Col.Table)
		table := p.Col.Table
		if rel != nil {
			table = rel.Table
		}
		out = append(out, expr.Pred{Col: storage.ColRef{Table: table, Column: p.Col.Column}, Con: p.Con})
	}
	return expr.NewBox(out...)
}

// AliasQualify translates a base-qualified box back to this query's
// aliases (inverse of BaseQualify; requires unique base tables).
func (q *Query) AliasQualify(box expr.Box) expr.Box {
	out := make(expr.Box, 0, len(box))
	for _, p := range box {
		table := p.Col.Table
		for _, r := range q.Relations {
			if r.Table == table {
				table = r.Alias
				break
			}
		}
		out = append(out, expr.Pred{Col: storage.ColRef{Table: table, Column: p.Col.Column}, Con: p.Con})
	}
	return expr.NewBox(out...)
}

// RepeatsTable reports whether two relations of the masked set read the
// same base table (a self-join). Base-qualified names — cache lineage
// and cached layouts — cannot tell such relations apart.
func (q *Query) RepeatsTable(mask int) bool {
	for i, r := range q.Relations {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		for j := i + 1; j < len(q.Relations); j++ {
			if mask&(1<<uint(j)) != 0 && q.Relations[j].Table == r.Table {
				return true
			}
		}
	}
	return false
}

// Connectivity helpers for the top-down partitioning enumerator.

// ConnectedSubgraph reports whether the masked relations form a
// connected subgraph of the join graph.
func (q *Query) ConnectedSubgraph(mask int) bool {
	if mask == 0 {
		return false
	}
	start := 0
	for start < len(q.Relations) && mask&(1<<uint(start)) == 0 {
		start++
	}
	seen := 1 << uint(start)
	frontier := []int{start}
	for len(frontier) > 0 {
		v := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, j := range q.Joins {
			a, b := q.AliasIndex(j.Left.Table), q.AliasIndex(j.Right.Table)
			if a < 0 || b < 0 {
				continue
			}
			for _, pair := range [2][2]int{{a, b}, {b, a}} {
				if pair[0] == v && mask&(1<<uint(pair[1])) != 0 && seen&(1<<uint(pair[1])) == 0 {
					seen |= 1 << uint(pair[1])
					frontier = append(frontier, pair[1])
				}
			}
		}
	}
	return seen == mask
}

// CrossingJoins returns the join predicates with one side in each mask.
func (q *Query) CrossingJoins(leftMask, rightMask int) []JoinPred {
	var out []JoinPred
	for _, j := range q.Joins {
		a, b := q.AliasIndex(j.Left.Table), q.AliasIndex(j.Right.Table)
		if a < 0 || b < 0 {
			continue
		}
		la, lb := leftMask&(1<<uint(a)) != 0, leftMask&(1<<uint(b)) != 0
		ra, rb := rightMask&(1<<uint(a)) != 0, rightMask&(1<<uint(b)) != 0
		if (la && rb) || (lb && ra) {
			out = append(out, j)
		}
	}
	return out
}
