package optimizer

import (
	"fmt"
	"testing"

	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/htcache"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// custkeyBox is the base-qualified box orders.o_custkey ∈ [lo, hi).
func custkeyBox(lo, hi int64) expr.Box {
	return expr.NewBox(expr.Pred{Col: storage.ColRef{Table: "orders", Column: "o_custkey"},
		Con: expr.IntervalConstraint(types.Int64, expr.Interval{
			HasLo: true, Lo: types.NewInt(lo), LoIncl: true,
			HasHi: true, Hi: types.NewInt(hi),
		})})
}

// TestClassify walks the classifier's table: each relation between the
// cached box and the request (equal; subsuming with and without the
// predicate column stored; partial; overlapping; disjoint) × whether
// the operator can widen × partial or overlapping reuse disabled.
func TestClassify(t *testing.T) {
	env := newEnv(t, Options{})
	o := env.opt
	q := &plan.Query{Relations: []plan.Rel{{Alias: "o", Table: "orders"}}}
	const mask = 1
	orderkey := storage.ColMeta{Ref: storage.ColRef{Table: "orders", Column: "o_orderkey"}, Kind: types.Int64}
	custkey := storage.ColMeta{Ref: storage.ColRef{Table: "orders", Column: "o_custkey"}, Kind: types.Int64}
	stored := hashtable.Layout{Cols: []storage.ColMeta{orderkey, custkey}, KeyCols: 1}
	keyOnly := hashtable.Layout{Cols: []storage.ColMeta{orderkey}, KeyCols: 1}
	req := custkeyBox(100, 200)

	type gate struct{ widen, partial, overlapping bool }
	cases := []struct {
		name   string
		cached expr.Box
		layout hashtable.Layout
		// want is the mode the gate yields; ModeNew means rejected.
		want func(g gate) ReuseMode
	}{
		{"equal", custkeyBox(100, 200), keyOnly, func(gate) ReuseMode { return ModeExact }},
		{"subsuming", custkeyBox(50, 250), stored, func(gate) ReuseMode { return ModeSubsuming }},
		{"subsuming-unstored", custkeyBox(50, 250), keyOnly, func(gate) ReuseMode { return ModeNew }},
		{"partial", custkeyBox(120, 180), keyOnly, func(g gate) ReuseMode {
			if g.widen && g.partial {
				return ModePartial
			}
			return ModeNew
		}},
		{"overlapping", custkeyBox(150, 300), stored, func(g gate) ReuseMode {
			if g.widen && g.overlapping {
				return ModeOverlapping
			}
			return ModeNew
		}},
		{"overlapping-unstored", custkeyBox(150, 300), keyOnly, func(gate) ReuseMode { return ModeNew }},
		{"disjoint", custkeyBox(300, 400), stored, func(gate) ReuseMode { return ModeNew }},
	}
	if rows := o.maskRows(q, mask, q.AliasQualify(req)); rows <= 0 {
		t.Fatalf("the request estimates %v rows", rows)
	}
	for _, tc := range cases {
		cand := candidate{filter: tc.cached, layout: tc.layout,
			rows: o.maskRows(q, mask, q.AliasQualify(tc.cached))}
		for _, g := range []gate{
			{true, true, true}, {false, true, true}, {true, false, true}, {true, true, false},
		} {
			name := fmt.Sprintf("%s/widen=%v/partial=%v/overlapping=%v", tc.name, g.widen, g.partial, g.overlapping)
			o.Opts.NoPartialReuse, o.Opts.NoOverlappingReuse = !g.partial, !g.overlapping
			choice, ok := o.classify(q, mask, cand, req, g.widen)
			want := tc.want(g)
			if want == ModeNew {
				if ok {
					t.Errorf("%s: classified %v, want rejected", name, choice.Mode)
				}
				continue
			}
			if !ok || choice.Mode != want {
				t.Errorf("%s: got %v (ok=%v), want %v", name, choice.Mode, ok, want)
				continue
			}
			postFiltered := want == ModeSubsuming || want == ModeOverlapping
			if postFiltered != (choice.PostFilter != nil) || postFiltered && !choice.PostFilter.Equal(req) {
				t.Errorf("%s: post-filter %v", name, choice.PostFilter)
			}
			if choice.widens() {
				union, _ := expr.UnionIfBox(tc.cached, req)
				if len(choice.ResidualBoxes) == 0 || !choice.NewFilter.Equal(union) {
					t.Errorf("%s: residual %v, new filter %v", name, choice.ResidualBoxes, choice.NewFilter)
				}
				if choice.Contr <= 0 || choice.Contr >= 1 {
					t.Errorf("%s: contribution %v outside (0, 1)", name, choice.Contr)
				}
			} else {
				if choice.ResidualBoxes != nil || choice.NewFilter != nil || choice.Contr != 1 {
					t.Errorf("%s: contr %v, residual %v, new filter %v", name, choice.Contr, choice.ResidualBoxes, choice.NewFilter)
				}
			}
			// The cached table's surplus over the request: none when it is
			// the request or inside it, some when it holds more.
			surplus := want == ModeSubsuming || want == ModeOverlapping
			if surplus != (choice.Overh > 0) || choice.Overh >= 1 {
				t.Errorf("%s: overhead %v", name, choice.Overh)
			}
		}
	}
}

// TestMaterializedCarriesItsLimits: the Materialized strategy needs no
// ablation switch. With every No* field zero, classify refuses the
// partial and overlapping candidates the cost model widens, and New
// puts the cache under LRU eviction.
func TestMaterializedCarriesItsLimits(t *testing.T) {
	env := newEnv(t, Options{})
	mat := New(env.cat, htcache.New(0), nil, Options{Strategy: Materialized})
	q := &plan.Query{Relations: []plan.Rel{{Alias: "o", Table: "orders"}}}
	const mask = 1
	layout := hashtable.Layout{Cols: []storage.ColMeta{
		{Ref: storage.ColRef{Table: "orders", Column: "o_orderkey"}, Kind: types.Int64},
		{Ref: storage.ColRef{Table: "orders", Column: "o_custkey"}, Kind: types.Int64},
	}, KeyCols: 1}
	req := custkeyBox(100, 200)
	for _, cached := range []expr.Box{custkeyBox(120, 180), custkeyBox(150, 300)} {
		cand := candidate{filter: cached, layout: layout,
			rows: env.opt.maskRows(q, mask, q.AliasQualify(cached))}
		if choice, ok := env.opt.classify(q, mask, cand, req, true); !ok || !choice.widens() {
			t.Fatalf("cost model on %v: %v (ok=%v), want a widening reuse", cached, choice.Mode, ok)
		}
		if choice, ok := mat.classify(q, mask, cand, req, true); ok {
			t.Errorf("materialized on %v: classified %v, want rejected", cached, choice.Mode)
		}
	}

	small := New(env.cat, htcache.New(64<<10), nil, Options{Strategy: Materialized})
	for _, d := range []string{"1995-01-01", "1994-06-01", "1995-06-01", "1994-01-01", "1996-01-01"} {
		if _, err := small.Run(q3(d, "")); err != nil {
			t.Fatal(err)
		}
	}
	if tier := small.Cache.Stats().Tiering; tier.LRUEvictions == 0 || tier.BenefitEvictions != 0 {
		t.Errorf("evictions: %d LRU, %d benefit; want LRU only", tier.LRUEvictions, tier.BenefitEvictions)
	}
}
