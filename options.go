package hashstash

import "hashstash/internal/costmodel"

// Option configures Open.
type Option func(*config)

// config is what the options add up to: the two public structs held
// whole, plus the choices that are not sizing or ablation switches.
type config struct {
	tuning      Tuning
	ablations   Ablations
	strategy    Strategy
	calibration *costmodel.Calibration
}

// merge overwrites *dst with src unless src is the zero value — the
// "set fields apply, unset fields leave what is there" rule of
// WithTuning and WithAblations.
func merge[T comparable](dst *T, src T) {
	var zero T
	if src != zero {
		*dst = src
	}
}

// WithStrategy selects the reuse strategy (CostModel by default).
func WithStrategy(s Strategy) Option { return func(c *config) { c.strategy = s } }

// Deprecated: use WithStrategy.
func WithEngine(e Engine) Option { return WithStrategy(e) }

// WithCalibration installs a host-specific cost calibration (see the
// hscalibrate tool); the default is a generic x86 profile.
func WithCalibration(cal *costmodel.Calibration) Option {
	return func(c *config) { c.calibration = cal }
}

// WithPartitionKey does nothing: every table is stored whole, once.
//
// Deprecated: it is ignored and stays only until the benchmark stops
// passing it.
func WithPartitionKey(table, column string) Option { return func(*config) {} }

// Tuning groups the capacity and execution-sizing knobs. Zero values
// leave the engine defaults untouched, so partial literals compose:
//
//	hashstash.Open(hashstash.WithTuning(hashstash.Tuning{
//	    CacheBudget: 64 << 20,
//	    Parallelism: 8,
//	}))
type Tuning struct {
	// CacheBudget bounds the hash-table cache in bytes (0 = unlimited).
	CacheBudget int64
	// ColdTierBudget bounds the compact cold tier in bytes: artifacts
	// evicted from the hot cache are demoted to a pointer-free spill
	// format and revived instead of rebuilt when the cost model says
	// revival is cheaper. 0 disables the cold tier, as does
	// Ablations.LRUEviction.
	ColdTierBudget int64
	// IndexBuildBudget caps the total bytes of lazily built secondary
	// indexes (0 = unlimited).
	IndexBuildBudget int64
	// Parallelism is the morsel-driven worker-pool size (0 = all CPUs,
	// 1 = serial). A query takes the pool only for a pipeline with two
	// or more morsels; until then it runs on the calling goroutine.
	Parallelism int
	// MorselRows overrides the morsel granularity (0 = storage default).
	// Under the default a source shorter than 16K rows is one morsel, so
	// its pipeline runs on the calling goroutine; an explicit size
	// splits every source.
	MorselRows int
	// Shards does nothing: one catalog, one cache with the whole byte
	// budgets and one optimizer with the whole worker pool serve every
	// query.
	//
	// Deprecated: it is ignored and stays only until the benchmark stops
	// setting it.
	Shards int
	// SoftMemoryLimit is the memory governor's soft watermark (bytes):
	// above it the engine sheds cache and vetoes new index builds.
	// 0 = no soft watermark.
	SoftMemoryLimit int64
	// HardMemoryLimit is the governor's hard watermark (bytes): above
	// it admission refuses new queries with a retriable overload error
	// and a computed Retry-After. 0 = no hard watermark.
	HardMemoryLimit int64
}

// WithTuning applies every non-zero field of t. It composes with the
// other options; later options win on overlap.
func WithTuning(t Tuning) Option {
	return func(c *config) {
		d := &c.tuning
		merge(&d.CacheBudget, t.CacheBudget)
		merge(&d.ColdTierBudget, t.ColdTierBudget)
		merge(&d.IndexBuildBudget, t.IndexBuildBudget)
		merge(&d.Parallelism, t.Parallelism)
		merge(&d.MorselRows, t.MorselRows)
		merge(&d.SoftMemoryLimit, t.SoftMemoryLimit)
		merge(&d.HardMemoryLimit, t.HardMemoryLimit)
	}
}

// Ablations groups the feature switches used by the paper's ablation
// experiments. Every field defaults to false (= feature on); setting
// one disables the named mechanism.
type Ablations struct {
	// LRUEviction replaces benefit-per-byte eviction with plain LRU and
	// disables the cold tier.
	LRUEviction bool
	// NoBenefitOptimizations disables the Section 3.4 benefit-oriented
	// optimizations.
	NoBenefitOptimizations bool
	// NoPartialReuse disables partial reuse.
	NoPartialReuse bool
	// NoOverlappingReuse disables overlapping reuse.
	NoOverlappingReuse bool
	// NoSecondaryIndexes disables the ordered secondary-index access
	// path: no scan reads an index, lazily built or declared with
	// DB.BuildIndex.
	NoSecondaryIndexes bool
	// Faults arms deterministic fault injection for resilience testing:
	// a comma-separated spec of point=mode:trigger terms, e.g.
	// "htcache.publish=err:once,sched.dispatch=panic:every:50". Modes
	// are err and panic; triggers are once, every:N and p:P[:seed].
	// Empty leaves injection disarmed (zero-overhead no-ops). The
	// HASHSTASH_FAULTS environment variable arms the same grammar when
	// this field is unset. Arming is process-global.
	Faults string
}

// WithAblations applies the set switches (unset fields leave the
// features enabled).
func WithAblations(a Ablations) Option {
	return func(c *config) {
		d := &c.ablations
		merge(&d.LRUEviction, a.LRUEviction)
		merge(&d.NoBenefitOptimizations, a.NoBenefitOptimizations)
		merge(&d.NoPartialReuse, a.NoPartialReuse)
		merge(&d.NoOverlappingReuse, a.NoOverlappingReuse)
		merge(&d.NoSecondaryIndexes, a.NoSecondaryIndexes)
		merge(&d.Faults, a.Faults)
	}
}
