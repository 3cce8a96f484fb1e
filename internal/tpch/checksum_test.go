package tpch

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// hashString feeds s to h behind its length, as columnChecksum does.
func hashString(h hash.Hash64, s string) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
	h.Write(buf[:])
	h.Write([]byte(s))
}

// columnChecksum hashes a column's decoded values in row order: FNV-1a
// over each value's 8 payload bytes, or a string's bytes behind its
// length. It reads through Column.Value, so it sees what a query sees,
// whatever the column stores.
func columnChecksum(c *storage.Column) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := range c.Len() {
		v := c.Value(i)
		switch v.Kind {
		case types.String:
			hashString(h, v.S)
			continue
		case types.Float64:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
		default:
			binary.LittleEndian.PutUint64(buf[:], uint64(v.I))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestLoaderChecksums pins every generated column, value for value, at
// two scale factors. The constants were recorded at commit 9967d65,
// when string columns were still stored as Go strings, so a change of
// representation that alters a single drawn value fails here.
func TestLoaderChecksums(t *testing.T) {
	want := map[float64]map[string]uint64{
		0.002: {
			"customer.c_acctbal":       0x8374e77b8511d255,
			"customer.c_age":           0x8976889107f2216,
			"customer.c_custkey":       0xa21efbfe6c168b02,
			"customer.c_mktsegment":    0x8a24b84e138fec78,
			"customer.c_name":          0xd6603b865759a5b8,
			"customer.c_nationkey":     0x8d86f43be61fad81,
			"lineitem.l_discount":      0xd54074daebc35abb,
			"lineitem.l_extendedprice": 0x79acb2332d4c2a91,
			"lineitem.l_linenumber":    0x65842f28b1479466,
			"lineitem.l_orderkey":      0xe6dcc55244bc302a,
			"lineitem.l_partkey":       0x7cb3014838ef0521,
			"lineitem.l_quantity":      0xf1e2cc81ff53421a,
			"lineitem.l_returnflag":    0x717549443f2db345,
			"lineitem.l_shipdate":      0x88f8c00adafaa72f,
			"lineitem.l_suppkey":       0x6b3af5e7c9535631,
			"orders.o_custkey":         0x4d7b54f25b3fe47a,
			"orders.o_orderdate":       0xb3b6c3e601cb46ea,
			"orders.o_orderkey":        0x13581a9e18aea054,
			"orders.o_orderstatus":     0x175b456ea21dab4b,
			"orders.o_shippriority":    0x8fed60f1e1889625,
			"orders.o_totalprice":      0x816b8f32360be118,
			"part.p_brand":             0x85164afb175b4cbb,
			"part.p_mfgr":              0xefc6fdc98ebae125,
			"part.p_name":              0x3b00b4927f4939d1,
			"part.p_partkey":           0xb37ad165cfbf024a,
			"part.p_size":              0x8a756b3f2e8687a,
			"part.p_type":              0xf9b7f5571373e31b,
			"supplier.s_acctbal":       0x352cf0a2e7c15eb7,
			"supplier.s_name":          0x5aab1be4892b565b,
			"supplier.s_nationkey":     0xd612d48e70c68f12,
			"supplier.s_suppkey":       0x83acb86624e5cb31,
		},
		0.01: {
			"customer.c_acctbal":       0xb20c3a5ac2df52dd,
			"customer.c_age":           0xe7fe1f63e7a26036,
			"customer.c_custkey":       0x512418fce70d2386,
			"customer.c_mktsegment":    0x8c1b1ccc9a758ed0,
			"customer.c_name":          0x1105a48ae3c602c3,
			"customer.c_nationkey":     0x8ab14b2b35d5dfbe,
			"lineitem.l_discount":      0x605ed10bf8106b2,
			"lineitem.l_extendedprice": 0x62d17b5fd55c04d,
			"lineitem.l_linenumber":    0xc2c626fae60e3ec7,
			"lineitem.l_orderkey":      0x8d1ef024e7b3a918,
			"lineitem.l_partkey":       0x35dda8f0a0589ea4,
			"lineitem.l_quantity":      0x17a1c6b3b15b9b33,
			"lineitem.l_returnflag":    0x2a78126d53a9c3e1,
			"lineitem.l_shipdate":      0xbb7ee98d95943fb3,
			"lineitem.l_suppkey":       0xb6633b2cf2c4946a,
			"orders.o_custkey":         0x3d8d61f89b3eb0b9,
			"orders.o_orderdate":       0xcbb4c897e4605642,
			"orders.o_orderkey":        0x7ad3dfe24b8b9b07,
			"orders.o_orderstatus":     0xcabef4b2824e57d5,
			"orders.o_shippriority":    0xe94d157b19346225,
			"orders.o_totalprice":      0xe2304c7b7dfc55f,
			"part.p_brand":             0x62395b8bf528772b,
			"part.p_mfgr":              0x1b6a38b89a4ba67c,
			"part.p_name":              0x67a24ca275b6fa57,
			"part.p_partkey":           0x10c2067d6afe5fd8,
			"part.p_size":              0x2d9be509a38a3c8f,
			"part.p_type":              0x80b08fe71c94424d,
			"supplier.s_acctbal":       0xa592664f12a42705,
			"supplier.s_name":          0xd7a8486234598e7e,
			"supplier.s_nationkey":     0x7c44b846947f63c1,
			"supplier.s_suppkey":       0xb95b5467b0b22341,
		},
	}
	for _, sf := range []float64{0.002, 0.01} {
		db, err := Generate(Config{SF: sf})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]uint64{}
		for _, tbl := range db.Tables() {
			for _, c := range tbl.Cols {
				got[tbl.Name+"."+c.Name] = columnChecksum(c)
			}
		}
		for name, sum := range got {
			if w, ok := want[sf][name]; !ok || w != sum {
				t.Errorf("SF %v: %s checksum %#x, want %#x", sf, name, sum, w)
			}
		}
		if len(got) != len(want[sf]) {
			t.Errorf("SF %v: %d columns, want %d", sf, len(got), len(want[sf]))
		}
	}
}

// TestDictOrderChecksum pins the dictionary the loader fills, string by
// string in code order, at two scale factors. The constants were
// recorded at commit e0cb6d7, when every name was formatted on its own
// and every column grown by append, so a loader that interns in another
// order (and so hands out other codes) fails here even where every
// column decodes to the same values.
func TestDictOrderChecksum(t *testing.T) {
	want := map[float64]struct {
		n   int
		sum uint64
	}{
		0.002: {767, 0x93c05f4f8b8501e2},
		0.01:  {3647, 0x2f9ff1dc89d2e71c},
	}
	for sf, w := range want {
		db, err := Generate(Config{SF: sf})
		if err != nil {
			t.Fatal(err)
		}
		d := db.Customer.Column("c_name").Dict
		h := fnv.New64a()
		for code := range d.Len() {
			hashString(h, d.At(uint32(code)))
		}
		if d.Len() != w.n || h.Sum64() != w.sum {
			t.Errorf("SF %v: %d strings, checksum %#x; want %d, %#x", sf, d.Len(), h.Sum64(), w.n, w.sum)
		}
	}
}

// TestColumnsExactSize: every generated column is allocated at its
// table's row count, with no spare capacity.
func TestColumnsExactSize(t *testing.T) {
	db, err := Generate(Config{SF: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range db.Tables() {
		for _, c := range tbl.Cols {
			var capacity int
			switch c.Kind {
			case types.Float64:
				capacity = cap(c.Floats)
			case types.String:
				capacity = cap(c.Strs)
			default:
				capacity = cap(c.Ints)
			}
			if c.Len() != tbl.NumRows() || capacity != c.Len() {
				t.Errorf("%s.%s: len %d, cap %d, table rows %d", tbl.Name, c.Name, c.Len(), capacity, tbl.NumRows())
			}
		}
	}
}
