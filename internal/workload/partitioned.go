package workload

import (
	"hashstash/internal/expr"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Partitioned workloads: GeneratePartitioned models the operational
// side of a deployment keyed by customer — a stream dominated by
// customer-key point lookups ("show customer K and their orders"),
// which read only the pinned rows once the filter closure carries the
// pin to orders, mixed with a configurable fraction of date-window
// analytics over the same join that read every customer. The
// CrossShardFrac knob sweeps between the two regimes.

// PartitionedConfig controls partitioned workload generation. The
// queries run over CUSTOMER ⋈ ORDERS on custkey.
type PartitionedConfig struct {
	// N is the number of queries (default 64).
	N int
	// CrossShardFrac is the fraction of queries that constrain no
	// customer key and therefore read the whole tables (default
	// 0.25).
	CrossShardFrac float64
	// CustKeys is the customer-key domain [1, CustKeys] point lookups
	// draw from (default 1500, the tpch SF=0.01 customer count).
	CustKeys int64
	// Seed makes generation deterministic; 0 selects a default.
	Seed uint64
}

func (cfg *PartitionedConfig) defaults() {
	if cfg.N <= 0 {
		cfg.N = 64
	}
	if cfg.CrossShardFrac < 0 || cfg.CrossShardFrac > 1 {
		cfg.CrossShardFrac = 0.25
	}
	if cfg.CustKeys <= 0 {
		cfg.CustKeys = 1500
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x53484152 // "SHAR"
	}
}

// GeneratePartitioned produces a workload of cfg.N queries. Point
// queries (Shape = 0) carry a c_custkey equality, pinning every
// relation of the join to one customer; cross-shard queries (Shape = 1)
// filter on the o_orderdate window instead and aggregate across the
// whole key domain. Step.Lo/Hi carry the point key or the date window
// respectively.
func GeneratePartitioned(cfg PartitionedConfig) []Step {
	cfg.defaults()
	r := &rng{state: cfg.Seed}
	dlo, dhi := orderShipRange()
	span := dhi - dlo

	steps := make([]Step, 0, cfg.N)
	for len(steps) < cfg.N {
		if r.float() < cfg.CrossShardFrac {
			lo := dlo + r.intn(span-span/8)
			hi := lo + span/8
			steps = append(steps, Step{
				Query: crossShardQuery(lo, hi),
				Kind:  ShiftMuch,
				Lo:    lo, Hi: hi,
				Shape: 1,
			})
			continue
		}
		key := 1 + r.intn(cfg.CustKeys)
		steps = append(steps, Step{
			Query: pointQuery(key),
			Kind:  ZoomIn,
			Lo:    key, Hi: key,
			Shape: 0,
		})
	}
	return steps
}

// pointQuery pins the CUSTOMER ⋈ ORDERS join to one customer key: the
// o_custkey side inherits the c_custkey equality through the join edge
// (plan.CloseFilter).
func pointQuery(key int64) *plan.Query {
	return &plan.Query{
		Relations: []plan.Rel{{Alias: "c", Table: "customer"}, {Alias: "o", Table: "orders"}},
		Joins: []plan.JoinPred{{
			Left:  storage.ColRef{Table: "c", Column: "c_custkey"},
			Right: storage.ColRef{Table: "o", Column: "o_custkey"},
		}},
		Filter: expr.NewBox(expr.Pred{
			Col: storage.ColRef{Table: "c", Column: "c_custkey"},
			Con: expr.IntervalConstraint(types.Int64, expr.PointInterval(types.NewInt(key))),
		}),
		Select:  []storage.ColRef{{Table: "c", Column: "c_age"}},
		GroupBy: []storage.ColRef{{Table: "c", Column: "c_age"}},
		Aggs: []expr.AggSpec{{
			Func:  expr.AggSum,
			Arg:   &expr.Col{Ref: storage.ColRef{Table: "o", Column: "o_totalprice"}},
			Alias: "spend",
		}},
	}
}

// crossShardQuery constrains only a date window, so its matching rows
// span the whole key domain and the query reads the whole tables.
func crossShardQuery(lo, hi int64) *plan.Query {
	return &plan.Query{
		Relations: []plan.Rel{{Alias: "c", Table: "customer"}, {Alias: "o", Table: "orders"}},
		Joins: []plan.JoinPred{{
			Left:  storage.ColRef{Table: "c", Column: "c_custkey"},
			Right: storage.ColRef{Table: "o", Column: "o_custkey"},
		}},
		Filter: expr.NewBox(expr.Pred{
			Col: storage.ColRef{Table: "o", Column: "o_orderdate"},
			Con: expr.IntervalConstraint(types.Date, expr.Interval{
				HasLo: true, Lo: types.NewDate(lo), LoIncl: true,
				HasHi: true, Hi: types.NewDate(hi),
			}),
		}),
		Select:  []storage.ColRef{{Table: "c", Column: "c_mktsegment"}},
		GroupBy: []storage.ColRef{{Table: "c", Column: "c_mktsegment"}},
		Aggs: []expr.AggSpec{{
			Func:  expr.AggSum,
			Arg:   &expr.Col{Ref: storage.ColRef{Table: "o", Column: "o_totalprice"}},
			Alias: "revenue",
		}},
	}
}
