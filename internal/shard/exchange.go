package shard

import (
	"fmt"
	"sort"

	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/faultinject"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
)

// placement is the exchange planner's verdict for one relation of a
// scattered query: how its rows are distributed across the shards when
// the per-shard sub-plans run.
type placement struct {
	// fragCol is the column the relation's per-shard fragments are
	// hash-partitioned by; "" means the relation is fully replicated on
	// every shard (a base replica or a broadcast).
	fragCol string
	// moved marks a placement that differs from the base layout and
	// therefore needs a physical exchange before execution.
	moved bool
	// broadcast distinguishes the two exchange modes of a moved
	// relation: replicate everywhere vs repartition by fragCol.
	broadcast bool
}

// countViolations scores a placement globally, not edge by edge: a
// result tuple materializes shard-locally only if every fragmented
// relation holding a piece of it lives on the same shard, which holds
// exactly when all fragmented relations hash on columns of one join
// equivalence class. (Edge-local co-partitioning is NOT sufficient — a
// broadcast relation bridging two fragmented relations keyed on
// unrelated columns silently drops every tuple whose two hashes
// disagree.) The score is the number of fragmented relations outside
// the best anchor class; zero means the layout is valid.
func countViolations(q *plan.Query, pl []placement, classes map[storage.ColRef]storage.ColRef) int {
	frag := 0
	best := 1
	counts := map[storage.ColRef]int{}
	for i := range pl {
		if pl[i].fragCol == "" {
			continue
		}
		frag++
		ref := storage.ColRef{Table: q.Relations[i].Alias, Column: pl[i].fragCol}
		if root, ok := classes[ref]; ok {
			counts[root]++
			if counts[root] > best {
				best = counts[root]
			}
		}
	}
	if frag <= 1 {
		return 0
	}
	return frag - best
}

// estRows estimates the post-filter row count of relation i across all
// shards (fragments summed; replicas counted once).
func (e *Engine) estRows(q *plan.Query, i int) float64 {
	rel := q.Relations[i]
	box := q.FilterFor(rel.Alias)
	if _, partitioned := e.keys[rel.Table]; !partitioned {
		if st, ok := e.shards[0].Cat.Stats(rel.Table); ok {
			return st.EstimateRows(box)
		}
		return 0
	}
	var rows float64
	for _, sh := range e.shards {
		if st, ok := sh.Cat.Stats(rel.Table); ok {
			rows += st.EstimateRows(box)
		}
	}
	return rows
}

func (e *Engine) rowWidth(table string) int {
	t := e.shards[0].Cat.Table(table)
	if t == nil {
		return 8
	}
	return 8 * len(t.Cols)
}

// planExchanges decides, per relation, how a scattered query's data is
// laid out. If the base layout (declared fragments + replicas) is
// already anchored on one join equivalence class it is used as-is.
// Otherwise the planner enumerates every valid anchor: each equivalence
// class (fragmented relations either already conform, repartition onto
// a class column, or broadcast — whichever ExchangeCost prices lower,
// provided at least one relation stays fragmented so shards produce
// disjoint result slices), and each "single survivor" layout that keeps
// one relation fragmented and broadcasts the rest. The cheapest total
// exchange cost wins. At least one candidate always exists because
// broadcast is universally applicable.
func (e *Engine) planExchanges(q *plan.Query) []placement {
	base := make([]placement, len(q.Relations))
	var frag []int
	for i, rel := range q.Relations {
		if key, ok := e.keys[rel.Table]; ok {
			base[i] = placement{fragCol: key}
			frag = append(frag, i)
		}
	}
	classes := plan.JoinClasses(q)
	if countViolations(q, base, classes) == 0 {
		return base
	}

	rows := make([]float64, len(q.Relations))
	width := make([]int, len(q.Relations))
	for _, i := range frag {
		rows[i] = e.estRows(q, i)
		width[i] = e.rowWidth(q.Relations[i].Table)
	}
	n := len(e.shards)
	bcast := func(i int) float64 { return e.model.ExchangeCost(rows[i], width[i], n, true) }
	repart := func(i int) float64 { return e.model.ExchangeCost(rows[i], width[i], n, false) }

	var best []placement
	bestCost := 0.0
	consider := func(pl []placement, cost float64) {
		if best == nil || cost < bestCost {
			best, bestCost = pl, cost
		}
	}

	// classCols[root] lists, per alias, the sorted columns of that class
	// — the legal repartition targets for the relation.
	classCols := map[storage.ColRef]map[string][]string{}
	var roots []storage.ColRef
	for ref, root := range classes {
		m, ok := classCols[root]
		if !ok {
			m = map[string][]string{}
			classCols[root] = m
			roots = append(roots, root)
		}
		m[ref.Table] = append(m[ref.Table], ref.Column)
	}
	sort.Slice(roots, func(a, b int) bool {
		if roots[a].Table != roots[b].Table {
			return roots[a].Table < roots[b].Table
		}
		return roots[a].Column < roots[b].Column
	})

	for _, root := range roots {
		byAlias := classCols[root]
		pl := append([]placement(nil), base...)
		cost := 0.0
		fragmented := 0
		for _, i := range frag {
			alias := q.Relations[i].Alias
			if classes[storage.ColRef{Table: alias, Column: base[i].fragCol}] == root {
				fragmented++
				continue
			}
			cols := append([]string(nil), byAlias[alias]...)
			sort.Strings(cols)
			if len(cols) > 0 && repart(i) < bcast(i) {
				pl[i] = placement{fragCol: cols[0], moved: true}
				cost += repart(i)
				fragmented++
			} else {
				pl[i] = placement{moved: true, broadcast: true}
				cost += bcast(i)
			}
		}
		// All-broadcast layouts duplicate every result tuple on every
		// shard; a valid anchor keeps at least one relation fragmented.
		if fragmented > 0 {
			consider(pl, cost)
		}
	}
	for _, keep := range frag {
		pl := append([]placement(nil), base...)
		cost := 0.0
		for _, i := range frag {
			if i == keep {
				continue
			}
			pl[i] = placement{moved: true, broadcast: true}
			cost += bcast(i)
		}
		consider(pl, cost)
	}
	return best
}

// applyExchanges materializes every moved placement as a query-lifetime
// temporary table per shard — the batched exchange. For each moved
// relation the operator walks its source placements once, applies the
// relation's own filter with the vectorized kernels (those predicates
// are then dropped from the rewritten query), and either scatters the
// surviving rows by join-column hash through the partition kernel or
// appends them to every shard's replica. The rewritten query (relation
// retargeted at the temporary, filter pruned) plus the temporary names
// for teardown come back.
func (e *Engine) applyExchanges(q *plan.Query, pl []placement) (*plan.Query, []string, error) {
	qr := *q
	var temps []string
	for i := range pl {
		if !pl[i].moved {
			continue
		}
		rel := q.Relations[i]
		if err := faultinject.Inject(faultinject.ShardExchange); err != nil {
			// Temps built for earlier placements come back for teardown;
			// the caller's deferred dropTemps unregisters them.
			return nil, temps, err
		}
		tempName := fmt.Sprintf("__exch%d_%s", e.seq.Add(1), rel.Alias)
		box := q.FilterFor(rel.Alias)

		proto := e.shards[0].Cat.Table(rel.Table)
		if proto == nil {
			return nil, temps, fmt.Errorf("shard: unknown table %q", rel.Table)
		}
		dests := make([]*storage.Table, len(e.shards))
		for s := range dests {
			dests[s] = proto.CloneSchema(tempName)
		}

		// Source placements: every fragment for a partitioned base
		// table, the single replica otherwise.
		var srcs []*storage.Table
		if _, partitioned := e.keys[rel.Table]; partitioned {
			for _, sh := range e.shards {
				srcs = append(srcs, sh.Cat.Table(rel.Table))
			}
		} else {
			srcs = append(srcs, proto)
		}

		part := storage.NewPartitioner(len(e.shards))
		for _, src := range srcs {
			sel, err := exec.FilterTable(src, box)
			if err != nil {
				return nil, temps, err
			}
			if len(sel) == 0 {
				continue
			}
			if pl[i].broadcast {
				for s := range dests {
					for ci, col := range src.Cols {
						dests[s].Cols[ci].AppendColumnGather(col, sel)
					}
				}
				continue
			}
			key := src.Column(pl[i].fragCol)
			if key == nil {
				return nil, temps, fmt.Errorf("shard: exchange column %q missing from %q", pl[i].fragCol, rel.Table)
			}
			part.PartitionSel(key, sel)
			for s := range dests {
				rows := part.Rows(s)
				if len(rows) == 0 {
					continue
				}
				for ci, col := range src.Cols {
					dests[s].Cols[ci].AppendColumnGather(col, rows)
				}
			}
		}

		temps = append(temps, tempName)
		for s, sh := range e.shards {
			sh.Cat.Register(dests[s])
		}

		// Rewrite the query: the relation now reads its exchanged
		// temporary, whose rows are already filtered.
		if &qr.Relations[0] == &q.Relations[0] {
			qr.Relations = append([]plan.Rel(nil), q.Relations...)
		}
		qr.Relations[i].Table = tempName
		var kept expr.Box
		for _, p := range qr.Filter {
			if p.Col.Table != rel.Alias {
				kept = append(kept, p)
			}
		}
		qr.Filter = kept
	}
	return &qr, temps, nil
}

// dropTemps tears down exchange temporaries: every shard unregisters
// the table and invalidates any cached artifacts built over it during
// the query.
func (e *Engine) dropTemps(temps []string) {
	for _, name := range temps {
		for _, sh := range e.shards {
			sh.Cat.Unregister(name)
			sh.Cache.InvalidateTable(name)
		}
	}
}
