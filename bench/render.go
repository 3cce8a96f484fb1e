package main

import (
	"fmt"
	"strconv"
	"strings"

	"hashstash"
	"hashstash/internal/expr"
	"hashstash/internal/types"
)

// renderSQL writes q as SQL text that hashstashd's parser accepts and
// that parses back to the same logical query: every join, every
// interval, point and set predicate, GROUP BY, ORDER BY and LIMIT.
// workload.Step.SQL cannot be used for this: it drops the c_age
// predicate and emits invalid SQL for single-relation and ungrouped
// queries (see README.md, "first findings").
func renderSQL(q *hashstash.Query) (string, error) {
	var items []string
	for _, c := range q.Select {
		items = append(items, c.String())
	}
	for _, a := range q.Aggs {
		items = append(items, a.String())
	}
	if len(items) == 0 {
		return "", fmt.Errorf("render: query selects nothing: %v", q)
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(strings.Join(items, ", "))

	rels := make([]string, len(q.Relations))
	for i, r := range q.Relations {
		rels[i] = r.Table + " " + r.Alias
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(rels, ", "))

	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, j.String())
	}
	for _, p := range q.Filter {
		c, err := renderPred(p)
		if err != nil {
			return "", err
		}
		conds = append(conds, c...)
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if len(q.GroupBy) > 0 {
		cols := make([]string, len(q.GroupBy))
		for i, c := range q.GroupBy {
			cols[i] = c.String()
		}
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(cols, ", "))
	}
	if q.OrderBy != nil {
		b.WriteString(" ORDER BY ")
		b.WriteString(q.OrderBy.Col.String())
		if q.OrderBy.Desc {
			b.WriteString(" DESC")
		}
	}
	if q.Limit > 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.Itoa(q.Limit))
	}
	return b.String(), nil
}

// renderPred turns one box predicate into its conjuncts.
func renderPred(p expr.Pred) ([]string, error) {
	col := p.Col.String()
	if p.Con.Kind == types.String {
		if len(p.Con.Set) == 0 {
			return nil, fmt.Errorf("render: empty string set on %s", col)
		}
		quoted := make([]string, len(p.Con.Set))
		for i, s := range p.Con.Set {
			if strings.Contains(s, "'") {
				return nil, fmt.Errorf("render: cannot quote %q", s)
			}
			quoted[i] = "'" + s + "'"
		}
		return []string{col + " IN (" + strings.Join(quoted, ", ") + ")"}, nil
	}
	iv := p.Con.Iv
	if iv.HasLo && iv.HasHi && iv.LoIncl && iv.HiIncl && iv.Lo.Equal(iv.Hi) {
		return []string{col + " = " + renderLiteral(iv.Lo)}, nil
	}
	var out []string
	if iv.HasLo {
		op := " > "
		if iv.LoIncl {
			op = " >= "
		}
		out = append(out, col+op+renderLiteral(iv.Lo))
	}
	if iv.HasHi {
		op := " < "
		if iv.HiIncl {
			op = " <= "
		}
		out = append(out, col+op+renderLiteral(iv.Hi))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("render: unbounded predicate on %s", col)
	}
	return out, nil
}

func renderLiteral(v types.Value) string {
	if v.Kind == types.Date {
		return "DATE '" + v.String() + "'"
	}
	return v.String()
}
