package plan

import (
	"hashstash/internal/expr"
	"hashstash/internal/storage"
)

// JoinClasses unions the two sides of every join equality and returns
// each join column's class root. Two columns in the same class hold
// equal values in every result tuple: a constraint on one holds for all
// of them (CloseFilter), and hash-fragmenting on any of them yields the
// same shard for all rows of one tuple (the router's co-partitioning
// test).
func JoinClasses(q *Query) map[storage.ColRef]storage.ColRef {
	parent := map[storage.ColRef]storage.ColRef{}
	var find func(storage.ColRef) storage.ColRef
	find = func(c storage.ColRef) storage.ColRef {
		p, ok := parent[c]
		if !ok || p == c {
			parent[c] = c
			return c
		}
		r := find(p)
		parent[c] = r
		return r
	}
	for _, j := range q.Joins {
		parent[find(j.Left)] = find(j.Right)
	}
	out := make(map[storage.ColRef]storage.ColRef, len(parent))
	for c := range parent {
		out[c] = find(c)
	}
	return out
}

// CloseFilter returns q with its filter closed over the join equivalence
// classes: each class's constraint is the intersection of its members'
// constraints, and every member carries it. The closed filter selects
// exactly the result tuples the original does, so a point pin on
// c_custkey reaches o_custkey across c_custkey = o_custkey: the orders
// scan reads only the pinned rows, the router reads the pin off the
// orders side too, and the registered tables' lineage records both.
// Pins that disagree within a class close to an empty box. A query that
// constrains no join column comes back as is, without allocating.
//
// The engine applies it once, where a query enters: the router's
// RunContext and its batch interface. It is a variable only so that tests can swap in the
// identity and compare the engine with and without it.
var CloseFilter = closeFilter

func closeFilter(q *Query) *Query {
	constrained := false
	for _, j := range q.Joins {
		if q.Filter.ConstraintRef(j.Left) != nil || q.Filter.ConstraintRef(j.Right) != nil {
			constrained = true
			break
		}
	}
	if !constrained {
		return q
	}
	classes := JoinClasses(q)
	classCon := make(map[storage.ColRef]expr.Constraint, len(classes))
	preds := make([]expr.Pred, 0, len(q.Filter)+len(classes))
	for _, p := range q.Filter {
		root, ok := classes[p.Col]
		if !ok {
			preds = append(preds, p)
			continue
		}
		if c, seen := classCon[root]; seen {
			classCon[root] = c.Intersect(p.Con)
		} else {
			classCon[root] = p.Con
		}
	}
	for col, root := range classes {
		if c, ok := classCon[root]; ok {
			preds = append(preds, expr.Pred{Col: col, Con: c})
		}
	}
	out := *q
	out.Filter = expr.NewBox(preds...)
	return &out
}
