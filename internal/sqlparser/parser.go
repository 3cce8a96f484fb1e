package sqlparser

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"hashstash/hashstasherr"
	"hashstash/internal/catalog"
	"hashstash/internal/expr"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Parse compiles a SQL text into a logical query, resolving and
// validating every reference against the catalog. Every failure is a
// *hashstasherr.ParseError, a plan-validation failure included (a
// select column missing from GROUP BY, a disconnected join graph, ...):
// the statement is the client's mistake, and the validation error stays
// reachable through errors.Is and errors.As.
func Parse(sql string, cat *catalog.Catalog) (*plan.Query, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, cat: cat, src: sql}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if err := q.Validate(cat); err != nil {
		p.pos = 0 // the failure concerns the whole statement
		return nil, p.errWrap(err, "%v", err)
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
	cat  *catalog.Catalog
	src  string

	q *plan.Query
	// selectItems defers projection/aggregate resolution until aliases
	// are known (FROM is parsed after SELECT).
	selectItems []rawItem
}

type rawItem struct {
	agg   string // "" for plain columns
	star  bool   // COUNT(*)
	exprT exprTree
	alias string
}

// exprTree is the unresolved arithmetic expression form.
type exprTree struct {
	kind  byte // 'c' column, 'n' number, 'b' binop
	table string
	col   string
	num   float64
	op    byte
	l, r  *exprTree
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...interface{}) error {
	return p.errWrap(nil, format, args...)
}

// errWrap builds a structured ParseError at the current token,
// optionally tagged with a sentinel from hashstasherr (an unresolvable
// column reference also satisfies errors.Is(err, ErrUnknownColumn)).
func (p *parser) errWrap(sentinel error, format string, args ...interface{}) error {
	return &hashstasherr.ParseError{
		Pos:     p.cur().pos,
		Msg:     fmt.Sprintf(format, args...),
		Context: p.context(),
		Err:     sentinel,
	}
}

func (p *parser) context() string {
	t := p.cur()
	start := t.pos
	end := start + 20
	if end > len(p.src) {
		end = len(p.src)
	}
	return p.src[start:end]
}

// keyword matches a case-insensitive identifier keyword.
func (p *parser) keyword(kw string) bool {
	t := p.cur()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	t := p.cur()
	if t.kind == tokSymbol && t.text == sym {
		p.pos++
		return nil
	}
	return p.errf("expected %q", sym)
}

var aggNames = map[string]expr.AggFunc{
	"SUM": expr.AggSum, "COUNT": expr.AggCount, "AVG": expr.AggAvg,
	"MIN": expr.AggMin, "MAX": expr.AggMax,
}

func (p *parser) parseQuery() (*plan.Query, error) {
	p.q = &plan.Query{}
	if !p.keyword("SELECT") {
		return nil, p.errf("expected SELECT")
	}
	if err := p.parseSelectList(); err != nil {
		return nil, err
	}
	if !p.keyword("FROM") {
		return nil, p.errf("expected FROM")
	}
	if err := p.parseFrom(); err != nil {
		return nil, err
	}
	if p.keyword("WHERE") {
		if err := p.parseWhere(); err != nil {
			return nil, err
		}
	}
	if p.keyword("GROUP") {
		if !p.keyword("BY") {
			return nil, p.errf("expected BY after GROUP")
		}
		if err := p.parseGroupBy(); err != nil {
			return nil, err
		}
	}
	if p.keyword("ORDER") {
		if !p.keyword("BY") {
			return nil, p.errf("expected BY after ORDER")
		}
		if err := p.parseOrderBy(); err != nil {
			return nil, err
		}
	}
	if p.keyword("LIMIT") {
		if err := p.parseLimit(); err != nil {
			return nil, err
		}
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("trailing input")
	}
	return p.q, p.resolveSelect()
}

func (p *parser) parseOrderBy() error {
	alias, col, err := p.parseColRef()
	if err != nil {
		return err
	}
	spec := &plan.OrderSpec{Col: storage.ColRef{Table: alias, Column: col}}
	if p.keyword("DESC") {
		spec.Desc = true
	} else {
		p.keyword("ASC")
	}
	p.q.OrderBy = spec
	return nil
}

func (p *parser) parseLimit() error {
	t := p.cur()
	if t.kind != tokNumber {
		return p.errf("expected row count after LIMIT")
	}
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 0 {
		return p.errf("bad LIMIT %q", t.text)
	}
	if n == 0 {
		// plan.Query.Limit 0 means "no limit": reject rather than drop it.
		return p.errf("LIMIT must be at least 1")
	}
	p.pos++
	p.q.Limit = n
	return nil
}

func (p *parser) parseSelectList() error {
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return err
		}
		p.selectItems = append(p.selectItems, item)
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.pos++
			continue
		}
		break
	}
	return nil
}

func (p *parser) parseSelectItem() (rawItem, error) {
	t := p.cur()
	if t.kind == tokIdent {
		if _, isAgg := aggNames[strings.ToUpper(t.text)]; isAgg {
			name := strings.ToUpper(t.text)
			p.pos++
			if err := p.expectSymbol("("); err != nil {
				return rawItem{}, err
			}
			item := rawItem{agg: name}
			if p.cur().kind == tokSymbol && p.cur().text == "*" {
				p.pos++
				item.star = true
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return rawItem{}, err
				}
				item.exprT = e
			}
			if err := p.expectSymbol(")"); err != nil {
				return rawItem{}, err
			}
			item.alias = p.parseOptionalAlias()
			return item, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return rawItem{}, err
	}
	return rawItem{exprT: e, alias: p.parseOptionalAlias()}, nil
}

func (p *parser) parseOptionalAlias() string {
	if p.keyword("AS") {
		if t := p.cur(); t.kind == tokIdent {
			p.pos++
			return t.text
		}
		return ""
	}
	return ""
}

// parseExpr handles + - over * / over primaries.
func (p *parser) parseExpr() (exprTree, error) {
	left, err := p.parseTerm()
	if err != nil {
		return exprTree{}, err
	}
	for {
		t := p.cur()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.pos++
			right, err := p.parseTerm()
			if err != nil {
				return exprTree{}, err
			}
			l, r := left, right
			left = exprTree{kind: 'b', op: t.text[0], l: &l, r: &r}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseTerm() (exprTree, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return exprTree{}, err
	}
	for {
		t := p.cur()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/") {
			p.pos++
			right, err := p.parsePrimary()
			if err != nil {
				return exprTree{}, err
			}
			l, r := left, right
			left = exprTree{kind: 'b', op: t.text[0], l: &l, r: &r}
			continue
		}
		return left, nil
	}
}

func (p *parser) parsePrimary() (exprTree, error) {
	t := p.cur()
	switch {
	case t.kind == tokSymbol && t.text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return exprTree{}, err
		}
		return e, p.expectSymbol(")")
	case t.kind == tokNumber:
		p.pos++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return exprTree{}, p.errf("bad number %q", t.text)
		}
		return exprTree{kind: 'n', num: v}, nil
	case t.kind == tokIdent:
		p.pos++
		if p.cur().kind == tokSymbol && p.cur().text == "." {
			p.pos++
			col := p.cur()
			if col.kind != tokIdent {
				return exprTree{}, p.errf("expected column after %q.", t.text)
			}
			p.pos++
			return exprTree{kind: 'c', table: t.text, col: col.text}, nil
		}
		return exprTree{kind: 'c', col: t.text}, nil
	}
	return exprTree{}, p.errf("expected expression")
}

func (p *parser) parseFrom() error {
	for {
		t := p.cur()
		if t.kind != tokIdent {
			return p.errf("expected table name")
		}
		p.pos++
		rel := plan.Rel{Table: strings.ToLower(t.text), Alias: strings.ToLower(t.text)}
		if a := p.cur(); a.kind == tokIdent && !isKeyword(a.text) {
			p.pos++
			rel.Alias = strings.ToLower(a.text)
		}
		p.q.Relations = append(p.q.Relations, rel)
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.pos++
			continue
		}
		return nil
	}
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"AND": true, "AS": true, "BETWEEN": true, "IN": true, "DATE": true,
	"ORDER": true, "LIMIT": true, "ASC": true, "DESC": true,
}

func isKeyword(s string) bool { return keywords[strings.ToUpper(s)] }

// parseWhere parses AND-separated conjuncts.
func (p *parser) parseWhere() error {
	for {
		if err := p.parseConjunct(); err != nil {
			return err
		}
		if p.keyword("AND") {
			continue
		}
		return nil
	}
}

func (p *parser) parseConjunct() error {
	lt, lcol, err := p.parseColRef()
	if err != nil {
		return err
	}
	ref := storage.ColRef{Table: lt, Column: lcol}
	kind, err := p.resolveKind(ref)
	if err != nil {
		return err
	}

	t := p.cur()
	switch {
	case t.kind == tokIdent && strings.EqualFold(t.text, "BETWEEN"):
		p.pos++
		lo, err := p.parseLiteral(kind)
		if err != nil {
			return err
		}
		if !p.keyword("AND") {
			return p.errf("expected AND in BETWEEN")
		}
		hi, err := p.parseLiteral(kind)
		if err != nil {
			return err
		}
		p.addPred(ref, expr.IntervalConstraint(kind, expr.Interval{
			HasLo: true, Lo: lo, LoIncl: true,
			HasHi: true, Hi: hi, HiIncl: true,
		}))
		return nil

	case t.kind == tokIdent && strings.EqualFold(t.text, "IN"):
		p.pos++
		if err := p.expectSymbol("("); err != nil {
			return err
		}
		var vals []string
		for {
			v, err := p.parseLiteral(types.String)
			if err != nil {
				return err
			}
			vals = append(vals, v.S)
			if p.cur().kind == tokSymbol && p.cur().text == "," {
				p.pos++
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return err
		}
		if kind != types.String {
			return p.errf("IN requires a string column")
		}
		p.addPred(ref, expr.SetConstraint(vals...))
		return nil

	case t.kind == tokSymbol:
		op := t.text
		p.pos++
		// Join predicate: rhs is another column reference.
		if p.cur().kind == tokIdent && !isLiteralStart(p.toks[p.pos]) {
			save := p.pos
			if rt, rcol, err := p.parseColRef(); err == nil {
				if op != "=" {
					return p.errf("join predicates must use =")
				}
				p.q.Joins = append(p.q.Joins, plan.JoinPred{
					Left:  ref,
					Right: storage.ColRef{Table: rt, Column: rcol},
				})
				return nil
			}
			p.pos = save
		}
		v, err := p.parseLiteral(kind)
		if err != nil {
			return err
		}
		con, err := comparisonConstraint(kind, op, v)
		if err != nil {
			return p.errf("%v", err)
		}
		p.addPred(ref, con)
		return nil
	}
	return p.errf("expected comparison")
}

// isLiteralStart distinguishes DATE 'lit' from column references.
func isLiteralStart(t token) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, "DATE")
}

func comparisonConstraint(kind types.Kind, op string, v types.Value) (expr.Constraint, error) {
	if kind == types.String {
		switch op {
		case "=":
			return expr.SetConstraint(v.S), nil
		default:
			return expr.Constraint{}, fmt.Errorf("operator %q unsupported on strings", op)
		}
	}
	switch op {
	case "=":
		return expr.IntervalConstraint(kind, expr.PointInterval(v)), nil
	case "<":
		return expr.IntervalConstraint(kind, expr.Interval{HasHi: true, Hi: v}), nil
	case "<=":
		return expr.IntervalConstraint(kind, expr.Interval{HasHi: true, Hi: v, HiIncl: true}), nil
	case ">":
		return expr.IntervalConstraint(kind, expr.Interval{HasLo: true, Lo: v}), nil
	case ">=":
		return expr.IntervalConstraint(kind, expr.Interval{HasLo: true, Lo: v, LoIncl: true}), nil
	}
	return expr.Constraint{}, fmt.Errorf("unsupported operator %q", op)
}

func (p *parser) addPred(ref storage.ColRef, con expr.Constraint) {
	p.q.Filter = expr.NewBox(append(p.q.Filter, expr.Pred{Col: ref, Con: con})...)
}

// parseColRef reads alias.column or a bare column (resolved to the
// unique relation owning it).
func (p *parser) parseColRef() (string, string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", "", p.errf("expected column reference")
	}
	p.pos++
	if p.cur().kind == tokSymbol && p.cur().text == "." {
		p.pos++
		col := p.cur()
		if col.kind != tokIdent {
			return "", "", p.errf("expected column after alias")
		}
		p.pos++
		return strings.ToLower(t.text), strings.ToLower(col.text), nil
	}
	alias, err := p.ownerOf(strings.ToLower(t.text))
	if err != nil {
		return "", "", err
	}
	return alias, strings.ToLower(t.text), nil
}

// ownerOf finds the unique relation containing a bare column name.
func (p *parser) ownerOf(col string) (string, error) {
	owner := ""
	for _, rel := range p.q.Relations {
		tbl := p.cat.Table(rel.Table)
		if tbl != nil && tbl.Column(col) != nil {
			if owner != "" {
				return "", p.errf("ambiguous column %q", col)
			}
			owner = rel.Alias
		}
	}
	if owner == "" {
		return "", p.errWrap(hashstasherr.ErrUnknownColumn, "unknown column %q", col)
	}
	return owner, nil
}

func (p *parser) resolveKind(ref storage.ColRef) (types.Kind, error) {
	rel := p.q.RelByAlias(ref.Table)
	if rel == nil {
		return 0, p.errWrap(hashstasherr.ErrUnknownColumn, "unknown alias %q", ref.Table)
	}
	kind, err := p.cat.Resolve(rel.Table, ref.Column)
	if err != nil {
		// Keep the catalog's sentinel (unknown column/table) visible
		// through the parse-position wrapper.
		var sentinel error
		if errors.Is(err, hashstasherr.ErrUnknownColumn) {
			sentinel = hashstasherr.ErrUnknownColumn
		} else if errors.Is(err, hashstasherr.ErrUnknownTable) {
			sentinel = hashstasherr.ErrUnknownTable
		}
		return 0, p.errWrap(sentinel, "%v", err)
	}
	return kind, nil
}

// parseLiteral reads a literal of the expected kind; DATE 'x' and plain
// 'yyyy-mm-dd' strings coerce to dates for date columns.
func (p *parser) parseLiteral(kind types.Kind) (types.Value, error) {
	t := p.cur()
	if t.kind == tokIdent && strings.EqualFold(t.text, "DATE") {
		p.pos++
		t = p.cur()
		if t.kind != tokString {
			return types.Value{}, p.errf("expected date string after DATE")
		}
		p.pos++
		d, err := types.ParseDate(t.text)
		if err != nil {
			return types.Value{}, p.errf("%v", err)
		}
		return types.NewDate(d), nil
	}
	switch t.kind {
	case tokNumber:
		p.pos++
		switch kind {
		case types.Float64:
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return types.Value{}, p.errf("bad number")
			}
			return types.NewFloat(f), nil
		default:
			i, err := strconv.ParseInt(t.text, 10, 64)
			if err != nil {
				f, ferr := strconv.ParseFloat(t.text, 64)
				if ferr != nil {
					return types.Value{}, p.errf("bad number")
				}
				return types.NewFloat(f), nil
			}
			if kind == types.Date {
				return types.NewDate(i), nil
			}
			return types.NewInt(i), nil
		}
	case tokString:
		p.pos++
		if kind == types.Date {
			d, err := types.ParseDate(t.text)
			if err != nil {
				return types.Value{}, p.errf("%v", err)
			}
			return types.NewDate(d), nil
		}
		if kind != types.String {
			return types.Value{}, p.errf("string literal compared against %v column", kind)
		}
		return types.NewString(t.text), nil
	}
	return types.Value{}, p.errf("expected literal")
}

func (p *parser) parseGroupBy() error {
	for {
		alias, col, err := p.parseColRef()
		if err != nil {
			return err
		}
		p.q.GroupBy = append(p.q.GroupBy, storage.ColRef{Table: alias, Column: col})
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.pos++
			continue
		}
		return nil
	}
}

// resolveSelect turns raw select items into projections and aggregates
// now that aliases are known.
func (p *parser) resolveSelect() error {
	for _, item := range p.selectItems {
		if item.agg != "" {
			spec := expr.AggSpec{Func: aggNames[item.agg], Alias: item.alias}
			if !item.star {
				e, err := p.resolveExpr(item.exprT)
				if err != nil {
					return err
				}
				if col, ok := e.(*expr.Col); ok && spec.Func != expr.AggCount {
					kind, err := p.resolveKind(col.Ref)
					if err != nil {
						return err
					}
					if kind == types.String {
						return p.errf("%s over string column %q is not supported", item.agg, col.Ref.Column)
					}
				}
				spec.Arg = e
			} else if spec.Func != expr.AggCount {
				return p.errf("%s(*) is not supported", item.agg)
			}
			p.q.Aggs = append(p.q.Aggs, spec)
			continue
		}
		if item.exprT.kind != 'c' {
			return p.errf("non-aggregate select items must be columns")
		}
		ref, err := p.resolveColTree(item.exprT)
		if err != nil {
			return err
		}
		p.q.Select = append(p.q.Select, ref)
	}
	return nil
}

func (p *parser) resolveColTree(t exprTree) (storage.ColRef, error) {
	table := strings.ToLower(t.table)
	col := strings.ToLower(t.col)
	if table == "" {
		alias, err := p.ownerOf(col)
		if err != nil {
			return storage.ColRef{}, err
		}
		table = alias
	}
	return storage.ColRef{Table: table, Column: col}, nil
}

func (p *parser) resolveExpr(t exprTree) (expr.Expr, error) {
	switch t.kind {
	case 'c':
		ref, err := p.resolveColTree(t)
		if err != nil {
			return nil, err
		}
		return &expr.Col{Ref: ref}, nil
	case 'n':
		return &expr.Const{V: types.NewFloat(t.num)}, nil
	case 'b':
		l, err := p.resolveExpr(*t.l)
		if err != nil {
			return nil, err
		}
		r, err := p.resolveExpr(*t.r)
		if err != nil {
			return nil, err
		}
		return &expr.Bin{Op: expr.BinOp(t.op), L: l, R: r}, nil
	}
	return nil, p.errf("bad expression")
}
