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

	"hashstash/hashstasherr"
	"hashstash/internal/btree"
	"hashstash/internal/catalog"
	"hashstash/internal/costmodel"
	"hashstash/internal/exec"
	"hashstash/internal/faultinject"
	"hashstash/internal/htcache"
	"hashstash/internal/memgov"
	"hashstash/internal/optimizer"
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
// one strategy of the one optimizer.
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
// BuildIndex — must not run concurrently with queries. Every table is
// stored once in one catalog, every hash table and index is cached in
// one cache under the whole budget, and one optimizer plans solo queries
// and batches alike over the whole worker pool.
type DB struct {
	cat   *catalog.Catalog
	cache *htcache.Cache
	opt   *optimizer.Optimizer
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

	cat := catalog.New()
	cache := htcache.New(t.CacheBudget)
	if a.LRUEviction {
		cache.SetPolicy(htcache.PolicyLRU)
	}
	if t.ColdTierBudget > 0 {
		cache.SetColdBudget(t.ColdTierBudget)
	}
	gov.AddSource(cache)
	opt := optimizer.New(cat, cache, costmodel.NewModel(cfg.calibration), optimizer.Options{
		Strategy:               cfg.strategy,
		NoBenefitOptimizations: a.NoBenefitOptimizations,
		NoPartialReuse:         a.NoPartialReuse,
		NoOverlappingReuse:     a.NoOverlappingReuse,
		NoSecondaryIndexes:     a.NoSecondaryIndexes,
		Parallelism:            exec.Parallelism{Workers: t.Parallelism, MorselRows: t.MorselRows},
		IndexBuildBudget:       t.IndexBuildBudget,
		MemGov:                 gov,
	})
	return &DB{cat: cat, cache: cache, opt: opt, gov: gov}
}

// MemoryGovernor returns the memory-pressure governor, or nil when no
// watermark is configured. The serving front-end refreshes it at
// admission; embedders can call Refresh/Stats directly. All governor
// methods are nil-receiver-safe.
func (db *DB) MemoryGovernor() *memgov.Governor { return db.gov }

// ShardQueryCounts returns nil: the engine has no shards, and a nil
// count reads as one engine that ran every query.
//
// Deprecated: it counts nothing and stays only until the benchmark
// stops calling it.
func (db *DB) ShardQueryCounts() []int64 { return nil }

// LoadTPCH generates and registers a TPC-H-style database at the given
// scale factor (1.0 = the full TPC-H size; benchmarks typically use
// 0.01-0.1).
func (db *DB) LoadTPCH(sf float64) error {
	data, err := tpch.Generate(tpch.Config{SF: sf})
	if err != nil {
		return err
	}
	for _, t := range data.Tables() {
		db.cat.Register(t)
	}
	return nil
}

// CreateTable registers a new empty table with the given columns.
func (db *DB) CreateTable(name string, cols map[string]Kind, order []string) error {
	if db.cat.Table(name) != nil {
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
	db.cat.Register(t)
	return nil
}

// table returns the named base table or an error wrapping
// hashstasherr.ErrUnknownTable.
func (db *DB) table(name string) (*storage.Table, error) {
	if t := db.cat.Table(name); t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("hashstash: %w %q", hashstasherr.ErrUnknownTable, name)
}

// InsertRows appends rows (values in column order) and drops the cached
// artifacts — hash tables and secondary indexes alike — over the table.
// Every row is checked before any is appended: a row of the wrong arity
// or a value of the wrong kind fails the whole call and leaves the
// table as it was. Statistics need no refresh: a column recounts on its
// next read once its length moves.
func (db *DB) InsertRows(table string, rows [][]Value) error {
	t, err := db.table(table)
	if err != nil {
		return err
	}
	for i, row := range rows {
		if err := t.CheckRow(row); err != nil {
			return fmt.Errorf("hashstash: insert into %q, row %d: %w", table, i, err)
		}
	}
	for _, row := range rows {
		t.AppendRow(row...)
	}
	db.cache.InvalidateTable(table)
	return nil
}

// BuildIndex builds a btree index on a column now instead of waiting
// for the optimizer's ski-rental gate to build it. The tree is an
// ordinary cache entry: the cost model decides per query whether to use
// it, the cache may evict it, and InsertRows into the table drops it.
// A column that already has a cached index keeps it.
func (db *DB) BuildIndex(table, column string) error {
	t, err := db.table(table)
	if err != nil {
		return err
	}
	col := t.Column(column)
	if col == nil {
		return fmt.Errorf("hashstash: table %q has no column %q", table, column)
	}
	ref := storage.ColRef{Table: table, Column: column}
	if len(db.cache.Candidates(htcache.IndexLineage(ref), nil)) > 0 {
		return nil
	}
	tree, err := btree.Build(col)
	if err != nil {
		return err
	}
	db.cache.Release(db.cache.RegisterIndex(tree, ref))
	return nil
}

// Tables lists the registered base tables.
func (db *DB) Tables() []string { return db.cat.TableNames() }

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

// CacheStats reports hash-table cache statistics.
func (db *DB) CacheStats() CacheStats { return db.cache.Stats() }

// ClearCache evicts every unpinned cached hash table.
func (db *DB) ClearCache() { db.cache.Clear() }

// SetCacheBudget adjusts the garbage collector's memory budget at
// runtime and triggers collection immediately.
func (db *DB) SetCacheBudget(bytes int64) { db.cache.SetBudget(bytes) }
