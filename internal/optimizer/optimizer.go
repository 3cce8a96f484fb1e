// Package optimizer implements the Reuse-aware Query Optimizer (RQO) of
// HashStash — Section 3 of the paper:
//
//   - Algorithm 1: top-down partitioning join enumeration that, for every
//     partition of the join graph, considers every cached hash table
//     (plus a fresh one) for the build side, rewrites the sub-plan for
//     the chosen reuse case and keeps the cheapest alternative
//     (memoized per relation mask).
//
//   - The four reuse cases: exact (sub-plan eliminated), subsuming
//     (post-filter false positives), partial (add missing tuples from
//     base tables through residual predicates), overlapping (both).
//
//   - Reuse-aware cost models (package costmodel) fed with candidate
//     hash-table statistics (actual entry counts and widths from the
//     cache) and contribution/overhead ratios estimated from catalog
//     selectivities.
//
//   - Benefit-oriented optimizations (Section 3.4): AVG → SUM+COUNT,
//     storing selection attributes in payloads to keep tables reusable,
//     and a history-driven join-order tie-break.
//
// The optimizer also compiles chosen plans to exec pipelines and runs
// them, maintaining the hash-table cache (pinning, registration,
// lineage updates after partial reuse).
package optimizer

import (
	"sync"

	"hashstash/internal/catalog"
	"hashstash/internal/costmodel"
	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/htcache"
	"hashstash/internal/memgov"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
)

// Strategy selects how reuse decisions are made (Experiment 2 compares
// these three).
type Strategy uint8

const (
	// CostModel picks the cheapest alternative under the reuse-aware
	// cost model (the HashStash default).
	CostModel Strategy = iota
	// NeverReuse always builds fresh hash tables (the no-reuse
	// baseline; cached tables are still registered for later use).
	NeverReuse
	// AlwaysReuse greedily reuses the matching candidate with the
	// highest contribution ratio whenever one exists.
	AlwaysReuse
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case CostModel:
		return "cost-model"
	case NeverReuse:
		return "never-reuse"
	case AlwaysReuse:
		return "always-reuse"
	}
	return "strategy(?)"
}

// Options configures the optimizer.
type Options struct {
	Strategy Strategy
	// BenefitOriented enables the Section 3.4 optimizations: AVG
	// rewriting, additional payload attributes and the history-driven
	// join-order tie-break. On by default (New sets it).
	BenefitOriented bool
	// EnablePartial and EnableOverlapping gate the two reuse cases that
	// mutate cached tables; both default to true. Turning them off
	// yields the exact+subsuming-only behaviour of prior work (the
	// materialization-based baseline's capability, used for ablations).
	EnablePartial     bool
	EnableOverlapping bool
	// Parallelism is the scheduler configuration every run of this
	// optimizer's pipelines starts from (worker-pool size, morsel
	// granularity, the two scheduler ablation knobs). Ctx stays nil
	// here; each run sets it on its own copy.
	exec.Parallelism
	// NoBucketRehash disables incremental bucket maintenance of widened
	// tables, falling back to the all-or-nothing compaction clone at
	// the segment-depth bound; ablation knob.
	NoBucketRehash bool
	// RehashBudget caps chain nodes walked per bucket-maintenance pass
	// (<= 0 uses hashtable.DefaultRehashBudget).
	RehashBudget int
	// NoSecondaryIndexes disables the ordered secondary-index access
	// path entirely: no lazy index builds, no cached-index scans;
	// ablation knob.
	NoSecondaryIndexes bool
	// IndexBuildBudget caps the total bytes of lazily built secondary
	// indexes live in the cache (<= 0 = unlimited). A build that would
	// exceed it is skipped and the constraint scans instead.
	IndexBuildBudget int64
	// MemGov, when set, vetoes lazy index builds under memory pressure
	// (the ski-rental gate is forced closed at the soft watermark and
	// above). Nil means no governance.
	MemGov *memgov.Governor
}

// DefaultOptions returns the HashStash defaults.
func DefaultOptions() Options {
	return Options{
		Strategy:          CostModel,
		BenefitOriented:   true,
		EnablePartial:     true,
		EnableOverlapping: true,
	}
}

// Optimizer plans, compiles and runs reuse-aware queries. Run is safe
// to call from many goroutines and never serializes queries against
// each other: cached tables are immutable published snapshots, queries
// that widen one (partial/overlapping reuse) build a private
// copy-on-write successor and publish it atomically, and a superseded
// snapshot stays alive (held by the queries that resolved it) until
// their probes drain.
type Optimizer struct {
	Cat   *catalog.Catalog
	Cache *htcache.Cache
	Model *costmodel.Model
	Opts  Options

	// histMu guards history under concurrent planning.
	histMu sync.Mutex
	// history counts, per structural lineage key, how often past
	// queries probed for a matching cached table — the signal for the
	// benefit-oriented join-order tie-break.
	history map[string]int64

	// idxMu guards idxBenefit under concurrent compilation.
	idxMu sync.Mutex
	// idxBenefit accumulates, per base-qualified column, the benefit
	// (estimated scan cost minus index-range cost, ns) forgone by not
	// having a secondary index — the ski-rental signal for lazy builds:
	// once the accumulated benefit pays for IndexBuildCost, the next
	// query builds the index. A NaN entry marks a column proven
	// unindexable (e.g. floats containing NaN).
	idxBenefit map[string]float64
}

// New constructs an optimizer. A nil model uses the default calibration.
func New(cat *catalog.Catalog, cache *htcache.Cache, model *costmodel.Model, opts Options) *Optimizer {
	if model == nil {
		model = costmodel.NewModel(nil)
	}
	return &Optimizer{
		Cat: cat, Cache: cache, Model: model, Opts: opts,
		history:    make(map[string]int64),
		idxBenefit: make(map[string]float64),
	}
}

// WidenOptions translates the ablation knobs into the hashtable
// maintenance policy every copy-on-write widening uses (compile-time
// widening here, batch-local re-tag copies in the shared planner).
func (o *Optimizer) WidenOptions() hashtable.WidenOptions {
	return hashtable.WidenOptions{Rehash: !o.Opts.NoBucketRehash, Budget: o.Opts.RehashBudget}
}

// ReuseMode labels how a hash table is obtained for an operator.
type ReuseMode uint8

// Reuse modes; ModeNew means a fresh table is built.
const (
	ModeNew ReuseMode = iota
	ModeExact
	ModeSubsuming
	ModePartial
	ModeOverlapping
)

// String implements fmt.Stringer.
func (m ReuseMode) String() string {
	switch m {
	case ModeNew:
		return "new"
	case ModeExact:
		return "exact"
	case ModeSubsuming:
		return "subsuming"
	case ModePartial:
		return "partial"
	case ModeOverlapping:
		return "overlapping"
	}
	return "mode(?)"
}

// ReuseChoice describes how one operator's hash table is obtained.
type ReuseChoice struct {
	Mode  ReuseMode
	Entry *htcache.Entry // nil for ModeNew
	// Snap is the entry's snapshot the classification ran against,
	// resolved once at plan time and held through compile and execution
	// so the query never observes two versions of the table. Partial and
	// overlapping reuse widen this snapshot into a private successor.
	Snap *htcache.Snapshot
	// Contr and Overh are the estimated contribution and overhead
	// ratios used in the cost model.
	Contr, Overh float64
	// PostFilter is the base-qualified predicate applied to cached
	// entries (subsuming/overlapping reuse).
	PostFilter expr.Box
	// ResidualBoxes are alias-qualified predicate boxes whose union is
	// the set of missing tuples (partial/overlapping reuse).
	ResidualBoxes []expr.Box
	// NewFilter is the base-qualified content description of the table
	// after missing tuples are added; applied to the entry's lineage on
	// successful execution.
	NewFilter expr.Box
	// OperatorCost is the estimated reuse-aware operator cost (ns).
	OperatorCost float64
	// Cold is set when the chosen candidate lives in the cache's cold
	// tier: Snap stays nil until compile revives the entry
	// (Cache.Revive). Only exact/subsuming classifications reuse cold
	// artifacts — widening one would revive it just to copy it.
	Cold *htcache.ColdArtifact
	// SavedCost is the modeled saving (ns) of this choice versus the
	// fresh alternative for the same operator; compile credits it to the
	// entry's benefit accumulator when the plan pins the entry.
	SavedCost float64
}

type nodeKind uint8

const (
	nodeScan nodeKind = iota
	nodeJoin
)

// Node is a reuse-aware physical plan node for the SPJ part of a query.
type Node struct {
	Kind nodeKind
	Mask int

	// Scan fields.
	RelIdx    int
	ScanBoxes []expr.Box // alias-qualified; nil means the relation's filter

	// Join fields.
	BuildMask    int
	Build, Probe *Node
	BuildKeys    []storage.ColRef // alias-qualified, build side
	ProbeKeys    []storage.ColRef // alias-qualified, probe side
	// BuildFilter is the alias-qualified filter the build side was
	// planned under (residual plans differ from the original query);
	// fresh tables register it as their lineage content.
	BuildFilter expr.Box
	Reuse       *ReuseChoice

	// Estimates.
	OutRows float64
	Cost    float64 // cumulative estimated ns
}

// Decision records one operator's reuse decision for reporting (the
// paper's Table 8b encodes these as N/S/X strings).
type Decision struct {
	Operator string // "build(orders)", "agg", ...
	Action   byte   // 'N' new, 'S' reused, 'X' not executed
	Mode     ReuseMode
	EntryID  int64
}

// Planned is the outcome of planning one query.
type Planned struct {
	Query *plan.Query
	// Root is the SPJ plan; nil when aggregate reuse eliminated it.
	Root *Node
	// Agg is the aggregation decision; nil for SPJ queries.
	Agg *AggChoice
	// EstimatedCost is the total plan estimate (ns).
	EstimatedCost float64
}

// AggChoice is the aggregation operator's reuse decision.
type AggChoice struct {
	Choice ReuseChoice
	// GroupBase are the base-qualified group-by columns (layout keys).
	GroupBase []storage.ColRef
	// Specs are the base-qualified (AVG-rewritten) aggregates stored in
	// the hash table.
	Specs []expr.AggSpec
	// SrcIdx maps each original aggregate to its cell(s): [sum, count]
	// for rewritten AVGs, [j, j] otherwise.
	SrcIdx [][2]int
	// CachedSpecIdx maps each required spec to its position in the
	// cached entry's spec list (reuse only).
	CachedSpecIdx []int
	// PostAgg indicates a post-aggregation is needed because the cached
	// group-by is a superset of the requested one.
	PostAgg bool
	// ResidualRoots are SPJ plans feeding missing tuples (partial).
	ResidualRoots []*Node
	// FreshRoot is the fresh SPJ plan a cold-tier choice carries as its
	// fallback: if the cold entry is dropped between planning and
	// compilation the compiler builds fresh instead of failing. Nil for
	// every other mode (Planned.Root serves ModeNew).
	FreshRoot *Node
	// InputRows and DistinctKeys are the estimates used for costing.
	InputRows, DistinctKeys float64
}

// historyNote records that a structural probe happened (for the benefit
// heuristic) and returns its current score.
func (o *Optimizer) historyNote(key string) int64 {
	o.histMu.Lock()
	defer o.histMu.Unlock()
	o.history[key]++
	return o.history[key]
}

func (o *Optimizer) historyScore(key string) int64 {
	o.histMu.Lock()
	defer o.histMu.Unlock()
	return o.history[key]
}

// IsScan reports whether the node is a base-table scan leaf.
func (n *Node) IsScan() bool { return n.Kind == nodeScan }

// IsJoin reports whether the node is a hash join.
func (n *Node) IsJoin() bool { return n.Kind == nodeJoin }

// EstimateMaskRows exposes the cardinality model to other planners (the
// shared-plan merger costs groups with it).
func (o *Optimizer) EstimateMaskRows(q *plan.Query, mask int, filter expr.Box) float64 {
	return o.maskRows(q, mask, filter)
}
