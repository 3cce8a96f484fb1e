package storage

import (
	"fmt"
	"math"

	"hashstash/internal/types"
)

// Hash partitioning: the sharding layer lays every partitioned table
// out in shard order by the hash of one declared partition-key column
// and hands each shard its row range as a fragment. The same hash
// drives the places that must agree exactly — the bulk layout at load
// time, InsertRows' routing of new rows, and the router's
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
// the column: the scatter half of table partitioning.
func (c *Column) AppendColumnGather(src *Column, sel []int32) {
	dst := c.view()
	dst.AppendColumnGather(src, sel)
	c.Ints, c.Floats, c.Strs = dst.Ints, dst.Floats, dst.Strs
}

// PartitionTable lays t out in shard order by the hash of the key
// column: the returned whole table holds shard 0's rows, then shard
// 1's, and so on, each shard's rows in original row order. Fragment s
// is shard s's row range of the whole table and shares its storage;
// its capacity is capped at its length, so an append to a fragment
// copies it instead of writing into the next fragment's rows. Both the
// whole table and the fragments are named t.Name.
func PartitionTable(t *Table, key string, n int) (*Table, []*Table, error) {
	kc := t.Column(key)
	if kc == nil {
		return nil, nil, fmt.Errorf("storage: table %q has no partition-key column %q", t.Name, key)
	}
	part := NewPartitioner(n)
	part.Partition(kc, -1)
	whole := NewTable(t.Name)
	for _, col := range t.Cols {
		c := NewColumn(col.Name, col.Kind)
		c.AppendColumnGather(col, part.perm)
		whole.AddColumn(c)
	}
	frags := make([]*Table, n)
	for s := range frags {
		lo, hi := int(part.offsets[s]), int(part.offsets[s+1])
		frags[s] = NewTable(t.Name)
		for _, col := range whole.Cols {
			c := NewColumn(col.Name, col.Kind)
			switch col.Kind {
			case types.Int64, types.Date:
				c.Ints = col.Ints[lo:hi:hi]
			case types.Float64:
				c.Floats = col.Floats[lo:hi:hi]
			case types.String:
				c.Strs = col.Strs[lo:hi:hi]
			}
			frags[s].AddColumn(c)
		}
	}
	return whole, frags, nil
}
