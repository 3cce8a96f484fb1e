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
// compile order — a probe after its build sink, a hash-table readout
// after its producer. Pipeline breakers build per-worker partial hash tables
// that are merged into one immutable table at pipeline end, so probe
// pipelines — and cross-query reuse — stay lock-free on the hot path.
// Tuning.Parallelism sizes the pool; the default uses every available
// CPU, and one worker streams each pipeline whole into its sink.
//
// Exec is safe to call from many goroutines and queries never
// serialize against each other: cached tables are immutable published
// snapshots, a query that widens one (partial/overlapping reuse) builds
// a private copy — a bulk copy of the pointer-free arenas plus the
// missing tuples — and installs it with an atomic compare-and-swap when
// its pipelines drain. A query holds every snapshot it resolved until
// it finishes, so the garbage collector keeps a superseded one alive
// exactly as long as an in-flight probe still needs it.
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
	"hashstash/internal/memgov"
	"hashstash/internal/optimizer"
	"hashstash/internal/shard"
	"hashstash/internal/storage"
	"hashstash/internal/tpch"
	"hashstash/internal/types"
)

// Value is a scalar result value.
type Value = types.Value

// Kind enumerates value kinds.
type Kind = types.Kind

// Result is an executed query's output: the answer as typed columns
// (Vecs) and, from every library entry point, boxed row by row (Rows);
// plus timing and reuse decisions.
type Result = optimizer.Result

// CacheStats summarizes the hash-table cache.
type CacheStats = htcache.Stats

// Strategy selects how reuse decisions are made.
type Strategy = optimizer.Strategy

// Reuse strategies: the paper's system and its two baselines are each
// one strategy, and every strategy runs on any shard count.
const (
	// CostModel is the HashStash default: reuse when the reuse-aware
	// cost model says it is cheaper.
	CostModel = optimizer.CostModel
	// NeverReuse always builds fresh hash tables (the paper's no-reuse
	// baseline).
	NeverReuse = optimizer.NeverReuse
	// AlwaysReuse greedily reuses the best-matching cached table.
	AlwaysReuse = optimizer.AlwaysReuse
	// Materialized is the paper's materialization-based reuse baseline:
	// the same optimizer caches the intermediates at the same pipeline
	// breakers, reuses them only exactly or subsumingly, rebuilds a
	// join's hash table from the cached one on every reuse, and evicts
	// by recency (so nothing demotes to the cold tier). Its scans keep
	// the secondary-index access path.
	Materialized = optimizer.Materialized
)

// Deprecated: use Strategy.
type Engine = Strategy

// Deprecated: use Materialized.
const EngineMaterialized = Materialized

// DB is a HashStash database instance. Exec and ExecBatch are safe for
// concurrent use; schema changes — LoadTPCH, CreateTable, InsertRows,
// BuildIndex — must not run concurrently with queries. Every strategy
// and shard count runs solo queries and batches through one router, so
// a batch merges the queries it routes to one shard into shared plans.
type DB struct {
	// router is the engine: every data and query path, solo or batched,
	// goes through it. It holds one shard unless Tuning.Shards > 1, and
	// a router of one routes every query straight to its only optimizer.
	router *shard.Engine
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

	n := max(1, t.Shards)
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
		if a.LRUEviction {
			cache.SetPolicy(htcache.PolicyLRU)
		}
		if t.ColdTierBudget > 0 {
			cache.SetColdBudget(split(t.ColdTierBudget))
		}
		gov.AddSource(cache)
		opt := optimizer.New(cat, cache, model, optimizer.Options{
			Strategy:               cfg.strategy,
			NoBenefitOptimizations: a.NoBenefitOptimizations,
			NoPartialReuse:         a.NoPartialReuse,
			NoOverlappingReuse:     a.NoOverlappingReuse,
			NoSecondaryIndexes:     a.NoSecondaryIndexes,
			Parallelism:            shardPar,
			IndexBuildBudget:       split(t.IndexBuildBudget),
			MemGov:                 gov,
		})
		shards[s] = &shard.Shard{ID: s, Cat: cat, Cache: cache, Opt: opt}
	}
	router := shard.New(shards, par)
	if n > 1 {
		// A one-shard database declares no keys, so its loads register
		// the caller's table as is instead of copying it into a fragment.
		for _, kv := range cfg.partKeys {
			router.DeclarePartitionKey(kv[0], kv[1])
		}
	}

	return &DB{
		router: router,
		gov:    gov,
	}
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

// ShardQueryCounts reports how many queries each shard has executed —
// single-partition routing is observable here: a partition-key point
// query increments exactly one shard's counter, and any other query
// runs on the whole tables and increments shard 0's.
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

// InsertRows appends rows (values in column order). Rows of a
// partitioned table route to their hash shards; only the shards that
// received rows drop their cached artifacts — hash tables and
// secondary indexes alike — over the table. Statistics need no
// refresh: a column recounts on its next read once its length moves.
func (db *DB) InsertRows(table string, rows [][]Value) error {
	return db.router.InsertRows(table, rows)
}

// BuildIndex builds a btree index on a column now instead of waiting
// for the optimizer's ski-rental gate to build it. The tree is an
// ordinary cache entry: the cost model decides per query whether to use
// it, the cache may evict it, and InsertRows into the table drops it.
func (db *DB) BuildIndex(table, column string) error {
	return db.router.BuildIndex(table, column)
}

// Tables lists the registered base tables.
func (db *DB) Tables() []string { return db.router.Tables() }

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
// shards.
func (db *DB) CacheStats() CacheStats {
	total, _ := db.router.Stats()
	return total
}

// ClearCache evicts every unpinned cached hash table.
func (db *DB) ClearCache() { db.router.Clear() }

// SetCacheBudget adjusts the garbage collector's memory budget at
// runtime and triggers collection immediately (split evenly across the
// shard caches).
func (db *DB) SetCacheBudget(bytes int64) { db.router.SetBudget(bytes) }
