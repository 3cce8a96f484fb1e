// Package hashstash is a main-memory analytical query engine that
// reuses internal hash tables across queries, reproducing the system of
// "Revisiting Reuse in Main Memory Database Systems" (Dursun, Binnig,
// Cetintemel, Kraska — SIGMOD 2017).
//
// Instead of materializing operator outputs into temporary tables,
// HashStash caches the hash tables that hash joins and hash aggregations
// build anyway at pipeline breakers, and a reuse-aware optimizer decides
// — per operator, with calibrated cost models — whether to reuse a
// cached table exactly, subsumingly (post-filtering false positives),
// partially (adding missing tuples from base tables) or overlappingly
// (both). A query-batch interface merges mergeable queries into shared
// plans whose operators evaluate many queries at once over query-id
// tagged tuples.
//
// # Parallel execution
//
// Query pipelines execute with morsel-driven parallelism: every scan is
// split into independent morsels (row ranges of a base table, an index
// run or a cached hash table's entry arena, ~64K rows each) that go
// into one FIFO queue every worker pops. A query's pipelines run in
// compile order — a probe after its build sink, a temp-table consumer
// after its producer — while the legs of a sharded query run
// concurrently. Pipeline breakers build per-worker partial hash tables
// that are merged into one immutable table at pipeline end, so probe
// pipelines — and cross-query reuse — stay lock-free on the hot path.
// Tuning.Parallelism sizes the pool; the default uses every available
// CPU, and one worker streams each pipeline whole into its sink.
//
// Exec is safe to call from many goroutines and queries never
// serialize against each other: cached tables are immutable published
// snapshots, a query that widens one (partial/overlapping reuse) builds
// a private copy-on-write successor — sharing the frozen base arenas
// and string heap, appending only the missing tuples — and installs it
// with an atomic compare-and-swap when its pipelines drain. A query
// holds every snapshot it resolved until it finishes, so the garbage
// collector keeps a superseded one alive exactly as long as an
// in-flight probe still needs it.
//
// Quick start:
//
//	db := hashstash.Open()
//	db.LoadTPCH(0.01)
//	res, err := db.Exec(`SELECT c.c_age, SUM(l.l_extendedprice) AS revenue
//	    FROM customer c, orders o, lineitem l
//	    WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
//	      AND l.l_shipdate >= DATE '1995-03-15'
//	    GROUP BY c.c_age`)
package hashstash

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"hashstash/internal/catalog"
	"hashstash/internal/costmodel"
	"hashstash/internal/exec"
	"hashstash/internal/faultinject"
	"hashstash/internal/htcache"
	"hashstash/internal/matreuse"
	"hashstash/internal/memgov"
	"hashstash/internal/optimizer"
	"hashstash/internal/shard"
	"hashstash/internal/shared"
	"hashstash/internal/storage"
	"hashstash/internal/tpch"
	"hashstash/internal/types"
)

// Value is a scalar result value.
type Value = types.Value

// Kind enumerates value kinds.
type Kind = types.Kind

// Result is an executed query's output (rows plus timing and reuse
// decisions).
type Result = optimizer.Result

// CacheStats summarizes the hash-table cache.
type CacheStats = htcache.Stats

// Strategy selects how reuse decisions are made.
type Strategy = optimizer.Strategy

// Reuse strategies.
const (
	// CostModel is the HashStash default: reuse when the reuse-aware
	// cost model says it is cheaper.
	CostModel = optimizer.CostModel
	// NeverReuse always builds fresh hash tables.
	NeverReuse = optimizer.NeverReuse
	// AlwaysReuse greedily reuses the best-matching cached table.
	AlwaysReuse = optimizer.AlwaysReuse
)

// Engine selects the reuse machinery behind Exec.
type Engine uint8

// Engines.
const (
	// EngineHashStash reuses internal hash tables (the paper's system).
	EngineHashStash Engine = iota
	// EngineMaterialized is the materialization-based reuse baseline
	// (temporary tables; exact+subsuming reuse only).
	EngineMaterialized
	// EngineNoReuse executes classically.
	EngineNoReuse
)

// DB is a HashStash database instance. Exec and ExecBatch are safe for
// concurrent use; schema changes — LoadTPCH, CreateTable, InsertRows,
// BuildIndex — must not run concurrently with queries.
type DB struct {
	// router is the engine: every data and query path goes through it.
	// It holds one shard unless Tuning.Shards > 1, and a router of one
	// routes every query straight to its only optimizer.
	router *shard.Engine
	// batch merges mergeable queries into shared plans over shard 0's
	// optimizer; only a one-shard EngineHashStash database uses it.
	batch *shared.Optimizer
	// mat is the materialization-based reuse baseline, the reference
	// the tests and experiments compare against; nil unless
	// EngineMaterialized is selected. Its queries only read base and
	// materialized tables (the temp cache synchronizes internally), so
	// they run concurrently.
	mat    *matreuse.Engine
	engine Engine
	// gov is the memory-pressure governor (nil unless Tuning sets a
	// watermark). The serving front-end refreshes it at admission.
	gov *memgov.Governor
}

// Open creates an empty database.
func Open(opts ...Option) *DB {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	t, a := cfg.tuning, cfg.ablations
	if t.Parallelism == 0 {
		t.Parallelism = runtime.GOMAXPROCS(0)
	}
	model := costmodel.NewModel(cfg.calibration)
	strategy := cfg.strategy
	if cfg.engine == EngineNoReuse {
		strategy = NeverReuse
	}
	// Deterministic fault injection for resilience testing; a bad spec
	// is a programming error in the test harness.
	spec := a.Faults
	if spec == "" {
		spec = os.Getenv("HASHSTASH_FAULTS")
	}
	if spec != "" {
		if err := faultinject.Arm(spec); err != nil {
			panic(fmt.Sprintf("hashstash: bad fault spec %q: %v", spec, err))
		}
	}
	var gov *memgov.Governor
	if t.SoftMemoryLimit > 0 || t.HardMemoryLimit > 0 {
		gov = memgov.New(t.SoftMemoryLimit, t.HardMemoryLimit)
	}

	// Sharding applies to EngineHashStash; the baselines run one shard.
	n := 1
	if t.Shards > 1 && cfg.engine == EngineHashStash {
		n = t.Shards
	}
	// Every shard gets an equal share of the worker pool and of the
	// byte budgets (0 stays "unlimited").
	split := func(b int64) int64 {
		if b <= 0 {
			return b
		}
		return max(1, b/int64(n))
	}
	par := exec.Parallelism{Workers: t.Parallelism, MorselRows: t.MorselRows}
	shardPar := par
	shardPar.Workers = max(1, t.Parallelism/n)
	shards := make([]*shard.Shard, n)
	for s := range shards {
		cat := catalog.New()
		cache := htcache.New(split(t.CacheBudget))
		cache.SetRehash(!a.NoBucketRehash, t.RehashBudget)
		if a.LRUEviction {
			cache.SetPolicy(htcache.PolicyLRU)
		}
		if t.ColdTierBudget > 0 {
			cache.SetColdBudget(split(t.ColdTierBudget))
		}
		gov.AddSource(cache)
		opt := optimizer.New(cat, cache, model, optimizer.Options{
			Strategy:           strategy,
			BenefitOriented:    !a.NoBenefitOptimizations,
			EnablePartial:      !a.NoPartialReuse,
			EnableOverlapping:  !a.NoOverlappingReuse,
			Parallelism:        shardPar,
			NoBucketRehash:     a.NoBucketRehash,
			RehashBudget:       t.RehashBudget,
			NoSecondaryIndexes: a.NoSecondaryIndexes,
			IndexBuildBudget:   split(t.IndexBuildBudget),
			MemGov:             gov,
		})
		shards[s] = &shard.Shard{ID: s, Cat: cat, Cache: cache, Opt: opt}
	}
	router := shard.New(shards, model, par)
	if n > 1 {
		// A one-shard database declares no keys, so its loads register
		// the caller's table as is instead of copying it into a fragment.
		for _, kv := range cfg.partKeys {
			router.DeclarePartitionKey(kv[0], kv[1])
		}
	}

	db := &DB{
		router: router,
		batch:  shared.New(shards[0].Opt),
		engine: cfg.engine,
		gov:    gov,
	}
	if cfg.engine == EngineMaterialized {
		db.mat = matreuse.NewEngine(router.Catalog(), t.CacheBudget, par)
	}
	return db
}

// MemoryGovernor returns the memory-pressure governor, or nil when no
// watermark is configured. The serving front-end refreshes it at
// admission; embedders can call Refresh/Stats directly. All governor
// methods are nil-receiver-safe.
func (db *DB) MemoryGovernor() *memgov.Governor { return db.gov }

// Shards reports the number of shards (1 unless Tuning.Shards > 1).
func (db *DB) Shards() int { return db.router.Shards() }

// PartitionTable hash-partitions (or re-keys) an already-loaded table
// by column across the shards, invalidating cached artifacts over it.
// Requires Tuning.Shards > 1.
func (db *DB) PartitionTable(table, column string) error {
	if db.Shards() == 1 {
		return fmt.Errorf("hashstash: PartitionTable requires Tuning.Shards > 1")
	}
	return db.router.Repartition(table, column)
}

// ShardCacheStats reports each shard's cache statistics.
func (db *DB) ShardCacheStats() []CacheStats {
	_, per := db.router.Stats()
	return per
}

// ShardQueryCounts reports how many queries (or scatter legs) each
// shard has executed — single-partition routing is observable here: a
// partition-key point query increments exactly one shard's counter.
func (db *DB) ShardQueryCounts() []int64 { return db.router.QueryCounts() }

// LoadTPCH generates and registers a TPC-H-style database at the given
// scale factor (1.0 = the full TPC-H size; benchmarks typically use
// 0.01-0.1).
func (db *DB) LoadTPCH(sf float64) error {
	data, err := tpch.Generate(tpch.Config{SF: sf})
	if err != nil {
		return err
	}
	for _, t := range data.Tables() {
		if err := db.router.LoadTable(t); err != nil {
			return err
		}
	}
	return nil
}

// CreateTable registers a new empty table with the given columns.
func (db *DB) CreateTable(name string, cols map[string]Kind, order []string) error {
	if db.router.Catalog().Table(name) != nil {
		return fmt.Errorf("hashstash: table %q exists", name)
	}
	t := storage.NewTable(name)
	for _, cn := range order {
		kind, ok := cols[cn]
		if !ok {
			return fmt.Errorf("hashstash: column %q not in cols map", cn)
		}
		t.AddColumn(storage.NewColumn(cn, kind))
	}
	return db.router.LoadTable(t)
}

// InsertRows appends rows (values in column order) and refreshes
// statistics. Rows of a partitioned table route to their hash shards;
// only the shards that received rows drop their cached artifacts —
// hash tables and secondary indexes alike — over the table.
func (db *DB) InsertRows(table string, rows [][]Value) error {
	return db.router.InsertRows(table, rows)
}

// BuildIndex creates a sorted secondary index on a column (selection
// attributes benefit from one).
func (db *DB) BuildIndex(table, column string) error {
	return db.router.BuildIndex(table, column)
}

// Tables lists the registered base tables.
func (db *DB) Tables() []string { return db.router.Catalog().TableNames() }

// Exec parses and runs one SQL query through the configured engine
// (query-at-a-time interface). It is ExecContext under
// context.Background(); use ExecContext for cancellation and
// deadlines.
func (db *DB) Exec(sql string) (*Result, error) {
	return db.ExecContext(context.Background(), sql)
}

// ExecBatch runs a set of queries through the query-batch interface:
// mergeable queries share reuse-aware plans (Section 4 of the paper).
// Results are returned in input order. It is ExecBatchContext under
// context.Background().
func (db *DB) ExecBatch(sqls []string) ([]*Result, error) {
	return db.ExecBatchContext(context.Background(), sqls)
}

// CacheStats reports hash-table cache statistics summed over the
// shards (temporary-table cache statistics under EngineMaterialized).
func (db *DB) CacheStats() CacheStats {
	if db.mat != nil {
		return db.mat.Cache.Stats()
	}
	total, _ := db.router.Stats()
	return total
}

// ClearCache evicts every unpinned cached hash table.
func (db *DB) ClearCache() { db.router.Clear() }

// SetCacheBudget adjusts the garbage collector's memory budget at
// runtime and triggers collection immediately (split evenly across the
// shard caches).
func (db *DB) SetCacheBudget(bytes int64) { db.router.SetBudget(bytes) }
