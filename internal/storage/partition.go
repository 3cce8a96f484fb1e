package storage

import (
	"fmt"
	"math"

	"hashstash/internal/types"
)

// Hash partitioning: the sharding layer splits every partitioned table
// into N disjoint fragments by the hash of one declared partition-key
// column. The same hash drives three places that must agree exactly —
// the bulk table split at load time, the batched exchange operator that
// repartitions a join side at query time, and the router's
// partition-key-equality shard resolution — so all of them go through
// PartitionHash/ShardOf or the column-wise Partitioner kernel below.

// PartitionHash hashes one value for shard placement. Numeric kinds
// hash their bit patterns through the splitmix64 finalizer, strings
// through FNV-1a; both give full-avalanche 64-bit hashes so any modulus
// of shard counts spreads evenly.
func PartitionHash(v types.Value) uint64 {
	switch v.Kind {
	case types.Int64, types.Date:
		return types.Mix64(uint64(v.I))
	case types.Float64:
		return types.Mix64(math.Float64bits(v.F))
	case types.String:
		return types.HashString(v.S)
	}
	return 0
}

// ShardOf maps a partition-key value to its shard in an n-shard layout.
func ShardOf(v types.Value, n int) int {
	if n <= 1 {
		return 0
	}
	return int(PartitionHash(v) % uint64(n))
}

// Partitioner is the vectorized partition kernel: it splits a batch of
// rows into per-shard row-index segments by partition-key hash. All
// scratch buffers are owned by the Partitioner and reused across calls,
// so steady-state partitioning allocates nothing.
type Partitioner struct {
	shards int

	hashes  []uint64
	dest    []int32
	counts  []int32
	offsets []int32
	fill    []int32
	perm    []int32
}

// NewPartitioner returns a kernel for an n-shard layout (n >= 1).
func NewPartitioner(n int) *Partitioner {
	if n < 1 {
		panic(fmt.Sprintf("storage: NewPartitioner(%d)", n))
	}
	return &Partitioner{
		shards:  n,
		counts:  make([]int32, n),
		offsets: make([]int32, n+1),
		fill:    make([]int32, n),
	}
}

// Shards reports the configured shard count.
func (p *Partitioner) Shards() int { return p.shards }

func (p *Partitioner) grow(n int) {
	if cap(p.hashes) < n {
		p.hashes = make([]uint64, n)
		p.dest = make([]int32, n)
		p.perm = make([]int32, n)
	}
	p.hashes = p.hashes[:n]
	p.dest = p.dest[:n]
	p.perm = p.perm[:n]
}

// Partition splits the first n rows of the key column (the whole column
// when n < 0) into per-shard segments. After the call, Rows(s) returns
// the row indices destined for shard s, in ascending (stable) row
// order. The kernel is column-wise: one typed pass computes hashes, one
// pass counts, one prefix sum, one scatter — no per-row interface
// dispatch and, steady state, no allocation.
func (p *Partitioner) Partition(key *Column, n int) {
	if n < 0 {
		n = key.Len()
	}
	p.grow(n)
	hashes := p.hashes
	switch key.Kind {
	case types.Int64, types.Date:
		for i, v := range key.Ints[:n] {
			hashes[i] = types.Mix64(uint64(v))
		}
	case types.Float64:
		for i, v := range key.Floats[:n] {
			hashes[i] = types.Mix64(math.Float64bits(v))
		}
	case types.String:
		for i, s := range key.Strs[:n] {
			hashes[i] = types.HashString(s)
		}
	default:
		panic(fmt.Sprintf("storage: cannot partition by %v column %q", key.Kind, key.Name))
	}

	ns := uint64(p.shards)
	dest := p.dest
	counts := p.counts
	for i := range counts {
		counts[i] = 0
	}
	for i, h := range hashes {
		d := int32(h % ns)
		dest[i] = d
		counts[d]++
	}
	p.offsets[0] = 0
	for s := 0; s < p.shards; s++ {
		p.offsets[s+1] = p.offsets[s] + counts[s]
		p.fill[s] = p.offsets[s]
	}
	for i := 0; i < n; i++ {
		d := dest[i]
		p.perm[p.fill[d]] = int32(i)
		p.fill[d]++
	}
}

// PartitionSel is Partition restricted to a selection: only the rows
// listed in sel are hashed and scattered, and Rows(s) afterwards
// returns the original row ids (sel entries) destined for shard s, in
// sel order. The exchange operator uses it to repartition the rows
// surviving a relation's filter without materializing them first.
func (p *Partitioner) PartitionSel(key *Column, sel []int32) {
	n := len(sel)
	p.grow(n)
	hashes := p.hashes
	switch key.Kind {
	case types.Int64, types.Date:
		for i, r := range sel {
			hashes[i] = types.Mix64(uint64(key.Ints[r]))
		}
	case types.Float64:
		for i, r := range sel {
			hashes[i] = types.Mix64(math.Float64bits(key.Floats[r]))
		}
	case types.String:
		for i, r := range sel {
			hashes[i] = types.HashString(key.Strs[r])
		}
	default:
		panic(fmt.Sprintf("storage: cannot partition by %v column %q", key.Kind, key.Name))
	}

	ns := uint64(p.shards)
	dest := p.dest
	counts := p.counts
	for i := range counts {
		counts[i] = 0
	}
	for i, h := range hashes {
		d := int32(h % ns)
		dest[i] = d
		counts[d]++
	}
	p.offsets[0] = 0
	for s := 0; s < p.shards; s++ {
		p.offsets[s+1] = p.offsets[s] + counts[s]
		p.fill[s] = p.offsets[s]
	}
	for i := 0; i < n; i++ {
		d := dest[i]
		p.perm[p.fill[d]] = sel[i]
		p.fill[d]++
	}
}

// Rows returns the row indices of the last Partition call destined for
// shard s, in ascending row order. The slice aliases kernel scratch and
// is valid until the next Partition call.
func (p *Partitioner) Rows(s int) []int32 {
	return p.perm[p.offsets[s]:p.offsets[s+1]]
}

// Dest returns the per-row destination shards of the last Partition
// call (aliases kernel scratch).
func (p *Partitioner) Dest() []int32 { return p.dest }

// AppendColumnGather appends the selected rows of src (same kind) to
// the column — the scatter half of table partitioning and the exchange
// operator's batched row movement.
func (c *Column) AppendColumnGather(src *Column, sel []int32) {
	dst := c.view()
	dst.AppendColumnGather(src, sel)
	c.Ints, c.Floats, c.Strs = dst.Ints, dst.Floats, dst.Strs
}

// CloneSchema returns an empty table with the same column names and
// kinds and no rows.
func (t *Table) CloneSchema(name string) *Table {
	nt := NewTable(name)
	for _, c := range t.Cols {
		nt.AddColumn(NewColumn(c.Name, c.Kind))
	}
	return nt
}

// PartitionTable splits t into n fragment tables by the hash of the key
// column. Fragment s holds exactly the rows whose key hashes to shard
// s, in original row order.
func PartitionTable(t *Table, key string, n int) ([]*Table, error) {
	kc := t.Column(key)
	if kc == nil {
		return nil, fmt.Errorf("storage: table %q has no partition-key column %q", t.Name, key)
	}
	frags := make([]*Table, n)
	for s := range frags {
		frags[s] = t.CloneSchema(t.Name)
	}
	if t.NumRows() == 0 {
		return frags, nil
	}
	part := NewPartitioner(n)
	part.Partition(kc, -1)
	for s := 0; s < n; s++ {
		rows := part.Rows(s)
		if len(rows) == 0 {
			continue
		}
		for ci, col := range t.Cols {
			frags[s].Cols[ci].AppendColumnGather(col, rows)
		}
	}
	return frags, nil
}
