// Package shard scales the engine out across N hash-partitioned
// shards. Each shard is a self-contained slice of the system — its own
// catalog fragment, its own hash-table/index cache with benefit
// accounting, its own optimizer (reuse history, ski-rental index
// accumulator) — so the paper's reuse machinery composes per shard
// instead of contending on one global cache.
//
// Tables declare at most one partition key. A declared table is stored
// once, laid out in shard order by partition-key hash
// (storage.PartitionTable): each shard's catalog registers its row range
// as the table's fragment, and shard 0's catalog also registers the
// whole table under a reserved name. Undeclared tables are replicated to
// every shard, which keeps them join-compatible with any fragment. The
// router sends a query whose partition-key equality constraints pin
// every partitioned relation to one shard straight to that shard's
// optimizer. Any other query reads the whole tables instead of the
// fragments and runs as one plan on shard 0 with the engine's full
// worker pool; no row moves, and the hash tables it builds stay cached
// in shard 0 for the next query.
package shard

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"hashstash/hashstasherr"
	"hashstash/internal/btree"
	"hashstash/internal/catalog"
	"hashstash/internal/exec"
	"hashstash/internal/htcache"
	"hashstash/internal/optimizer"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Shard is one partition of the engine: a catalog fragment plus the
// shard's private cache and optimizer.
type Shard struct {
	ID    int
	Cat   *catalog.Catalog
	Cache *htcache.Cache
	Opt   *optimizer.Optimizer

	// Queries counts the queries this shard planned and executed — the
	// per-shard counter routing tests assert on. A query run on the
	// whole tables counts on shard 0.
	Queries atomic.Int64
}

// Engine is the sharding router above the per-shard optimizers.
type Engine struct {
	shards []*Shard
	// par is the execution budget of one run on the whole tables.
	par exec.Parallelism
	// keys maps table name → declared partition-key column. Undeclared
	// tables are replicated.
	keys map[string]string
}

// wholeSuffix marks the reserved name under which shard 0's catalog
// registers a partitioned table's whole table. '#' is no identifier
// character, so no SQL statement can name it.
const wholeSuffix = "#whole"

func wholeName(table string) string { return table + wholeSuffix }

// New assembles an engine over pre-built shards. All shards must share
// the hash layout (they do, by construction: storage.PartitionHash).
func New(shards []*Shard, par exec.Parallelism) *Engine {
	return &Engine{shards: shards, par: par, keys: make(map[string]string)}
}

// Shards returns the number of shards.
func (e *Engine) Shards() int { return len(e.shards) }

// Shard returns shard s.
func (e *Engine) Shard(s int) *Shard { return e.shards[s] }

// Catalog returns the catalog queries are parsed against: shard 0's,
// which sees every table's schema whatever its placement.
func (e *Engine) Catalog() *catalog.Catalog { return e.shards[0].Cat }

// Tables lists the tables a query can name, without the reserved names
// of the whole tables.
func (e *Engine) Tables() []string {
	return slices.DeleteFunc(e.Catalog().TableNames(), func(name string) bool {
		return strings.HasSuffix(name, wholeSuffix)
	})
}

// table returns shard 0's placement of a table: the replica itself, or
// fragment 0 of a partitioned table.
func (e *Engine) table(name string) (*storage.Table, error) {
	if t := e.shards[0].Cat.Table(name); t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("shard: %w %q", hashstasherr.ErrUnknownTable, name)
}

// DeclarePartitionKey records that table is hash-partitioned by column.
// Declare before loading the table; declaring after load requires
// Repartition.
func (e *Engine) DeclarePartitionKey(table, column string) {
	e.keys[table] = column
}

// PartitionKey returns the declared partition key of a table.
func (e *Engine) PartitionKey(table string) (string, bool) {
	col, ok := e.keys[table]
	return col, ok
}

// LoadTable places a table across the shards. A declared table is laid
// out in shard order once: every shard registers its row range as the
// table's fragment, and shard 0 registers the whole table under its
// reserved name. An undeclared table replicates: every shard catalog
// registers the same underlying table.
func (e *Engine) LoadTable(t *storage.Table) error {
	if key, ok := e.keys[t.Name]; ok {
		whole, frags, err := storage.PartitionTable(t, key, len(e.shards))
		if err != nil {
			return err
		}
		whole.Name = wholeName(t.Name)
		e.shards[0].Cat.Register(whole)
		for s, sh := range e.shards {
			sh.Cat.Register(frags[s])
		}
		return nil
	}
	for _, sh := range e.shards {
		sh.Cat.Register(t)
	}
	return nil
}

// Repartition converts an already-loaded table to hash-partitioned
// form (or re-keys it): the current row set — replica or whole table —
// is laid out anew by the new key and re-registered; every shard's
// cached artifacts over the table, and shard 0's over its whole table,
// are dropped.
func (e *Engine) Repartition(table, column string) error {
	full, err := e.GatherTable(table)
	if err != nil {
		return err
	}
	if full.Column(column) == nil {
		return fmt.Errorf("shard: table %q has no partition-key column %q", table, column)
	}
	e.DeclarePartitionKey(table, column)
	if err := e.LoadTable(storage.NewTable(table, full.Cols...)); err != nil {
		return err
	}
	for _, sh := range e.shards {
		sh.Cache.InvalidateTable(table)
	}
	e.shards[0].Cache.InvalidateTable(wholeName(table))
	return nil
}

// GatherTable returns the full row set of a table without copying it:
// the replica itself, or the whole table a partitioned table is stored
// in, named with its reserved name.
func (e *Engine) GatherTable(table string) (*storage.Table, error) {
	if w := e.shards[0].Cat.Table(wholeName(table)); w != nil {
		return w, nil
	}
	return e.table(table)
}

// InsertRows appends rows to a table. A row of a partitioned table goes
// to its hash shard's fragment and to the whole table; only the shards
// whose fragments actually received rows have their cached artifacts
// over the table invalidated — an insert that lands on two shards leaves
// the other shards' hash tables and indexes warm — and shard 0 drops its
// artifacts over the whole table. Statistics need no refresh: each
// column recounts on its next read because its length moved.
func (e *Engine) InsertRows(table string, rows [][]types.Value) error {
	t0, err := e.table(table)
	if err != nil {
		return err
	}
	key, partitioned := e.keys[table]
	if !partitioned {
		for _, row := range rows {
			t0.AppendRow(row...)
		}
		for _, sh := range e.shards {
			sh.Cache.InvalidateTable(table)
		}
		return nil
	}
	ki := t0.ColumnIndex(key)
	if ki < 0 {
		return fmt.Errorf("shard: table %q lost its partition-key column %q", table, key)
	}
	whole := e.shards[0].Cat.Table(wholeName(table))
	touched := make([]bool, len(e.shards))
	for _, row := range rows {
		s := storage.ShardOf(row[ki], len(e.shards))
		e.shards[s].Cat.Table(table).AppendRow(row...)
		whole.AppendRow(row...)
		touched[s] = true
	}
	for s, sh := range e.shards {
		if touched[s] {
			sh.Cache.InvalidateTable(table)
		}
	}
	if len(rows) > 0 {
		e.shards[0].Cache.InvalidateTable(wholeName(table))
	}
	return nil
}

// BuildIndex builds a btree on every placement of the column and
// registers it in the shard caches exactly as a lazy build does: the
// entry is an ordinary cached artifact, evictable and invalidated by
// InsertRows. A fragment's tree goes into its own shard's cache, and the
// whole table's tree into shard 0's, where the queries no shard holds
// alone probe it; a replica's one tree goes into every shard's cache. A
// shard that already caches an index on the placement keeps it.
func (e *Engine) BuildIndex(table, column string) error {
	t0, err := e.table(table)
	if err != nil {
		return err
	}
	if t0.Column(column) == nil {
		return fmt.Errorf("shard: table %q has no column %q", table, column)
	}
	_, partitioned := e.keys[table]
	var tree *btree.Tree
	build := func(sh *Shard, name string, fresh bool) error {
		ref := storage.ColRef{Table: name, Column: column}
		if len(sh.Cache.Candidates(htcache.IndexLineage(ref), nil)) > 0 {
			return nil
		}
		if fresh || tree == nil {
			t, err := btree.Build(sh.Cat.Table(name).Column(column))
			if err != nil {
				return err
			}
			tree = t
		}
		sh.Cache.Release(sh.Cache.RegisterIndex(tree, ref))
		return nil
	}
	for _, sh := range e.shards {
		if err := build(sh, table, partitioned); err != nil {
			return err
		}
	}
	if partitioned {
		return build(e.shards[0], wholeName(table), true)
	}
	return nil
}

// QueryCounts snapshots the per-shard query counters.
func (e *Engine) QueryCounts() []int64 {
	out := make([]int64, len(e.shards))
	for s, sh := range e.shards {
		out[s] = sh.Queries.Load()
	}
	return out
}

// Stats folds every shard's cache statistics into one aggregate and
// returns the per-shard breakdown alongside.
func (e *Engine) Stats() (htcache.Stats, []htcache.Stats) {
	per := make([]htcache.Stats, len(e.shards))
	var total htcache.Stats
	for s, sh := range e.shards {
		per[s] = sh.Cache.Stats()
		total = total.Add(per[s])
	}
	return total, per
}

// Clear evicts every shard cache.
func (e *Engine) Clear() {
	for _, sh := range e.shards {
		sh.Cache.Clear()
	}
}

// SetBudget splits a global cache budget evenly across the shard
// caches (0 = unlimited everywhere).
func (e *Engine) SetBudget(bytes int64) {
	per := bytes
	if per > 0 {
		per = bytes / int64(len(e.shards))
		if per < 1 {
			per = 1
		}
	}
	for _, sh := range e.shards {
		sh.Cache.SetBudget(per)
	}
}
