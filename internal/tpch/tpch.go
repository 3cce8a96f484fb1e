// Package tpch generates a deterministic TPC-H-style database at a
// configurable scale factor. It reproduces the schema subset, key
// relationships and value distributions that the HashStash workloads
// touch (CUSTOMER, ORDERS, LINEITEM, PART, SUPPLIER), plus the paper's
// non-standard CUSTOMER.c_age column that the running examples group and
// filter on.
//
// The generator is fully deterministic for a given (scale factor, seed)
// pair: it uses a private splitmix64 stream per table, so adding columns
// to one table never perturbs another.
package tpch

import (
	"fmt"

	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Base cardinalities at scale factor 1.0 (TPC-H specification).
const (
	baseCustomers = 150000
	baseOrders    = 1500000
	baseParts     = 200000
	baseSuppliers = 10000
)

// Date range of o_orderdate per the TPC-H spec.
var (
	orderDateLo = types.MustParseDate("1992-01-01")
	orderDateHi = types.MustParseDate("1998-08-02")
)

// rng is a splitmix64 pseudo-random stream.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return types.Mix64(r.state)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int64) int64 {
	if n <= 0 {
		panic("tpch: intn on non-positive bound")
	}
	return int64(r.next() % uint64(n))
}

// rangeInt returns a uniform integer in [lo, hi].
func (r *rng) rangeInt(lo, hi int64) int64 { return lo + r.intn(hi-lo+1) }

// float returns a uniform float in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

var mktSegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}

var partTypes = []string{
	"STANDARD ANODIZED TIN", "SMALL PLATED COPPER", "MEDIUM POLISHED BRASS",
	"ECONOMY BURNISHED STEEL", "PROMO BRUSHED NICKEL", "LARGE ANODIZED COPPER",
}

var orderStatus = []string{"F", "O", "P"}

var returnFlags = []string{"N", "R", "A"}

// Config controls database generation.
type Config struct {
	// SF is the scale factor; 1.0 is the full TPC-H size. Typical test
	// values are 0.01-0.1.
	SF float64
	// Seed perturbs all random streams; 0 selects the default seed.
	Seed uint64
	// Dict is the dictionary the string columns are coded against (a
	// catalog's); nil gives the database a dictionary of its own.
	Dict *storage.Dict
}

// DB bundles the generated tables.
type DB struct {
	Customer *storage.Table
	Orders   *storage.Table
	Lineitem *storage.Table
	Part     *storage.Table
	Supplier *storage.Table
}

// Tables returns all generated tables.
func (db *DB) Tables() []*storage.Table {
	return []*storage.Table{db.Customer, db.Orders, db.Lineitem, db.Part, db.Supplier}
}

// Generate builds the database. Cardinalities scale linearly with SF but
// never drop below a small floor so that even tiny test databases
// exercise every code path.
func Generate(cfg Config) (*DB, error) {
	if cfg.SF <= 0 {
		return nil, fmt.Errorf("tpch: scale factor must be positive, got %v", cfg.SF)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x48617368 // "Hash"
	}
	scale := func(base int) int {
		n := int(float64(base) * cfg.SF)
		if n < 20 {
			n = 20
		}
		return n
	}
	nCust := scale(baseCustomers)
	nOrd := scale(baseOrders)
	nPart := scale(baseParts)
	nSupp := scale(baseSuppliers)
	d := cfg.Dict
	if d == nil {
		d = storage.NewDict()
	}

	db := &DB{
		Customer: genCustomer(d, nCust, seed^1),
		Part:     genPart(d, nPart, seed^2),
		Supplier: genSupplier(d, nSupp, seed^3),
	}
	db.Orders = genOrders(d, nOrd, nCust, seed^4)
	db.Lineitem = genLineitem(d, db.Orders, nPart, nSupp, seed^5)

	for _, t := range db.Tables() {
		if err := t.Check(); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// stringColumn returns an empty string column coded against d.
func stringColumn(d *storage.Dict, name string) *storage.Column {
	return &storage.Column{Name: name, Kind: types.String, Dict: d}
}

// internAll interns a fixed vocabulary once: a row then appends the
// code of the word its draw picks, with no dictionary lookup.
func internAll(d *storage.Dict, words []string) []uint32 {
	codes := make([]uint32, len(words))
	for i, w := range words {
		codes[i] = d.Intern(w)
	}
	return codes
}

func genCustomer(d *storage.Dict, n int, seed uint64) *storage.Table {
	r := newRNG(seed)
	key := storage.NewColumn("c_custkey", types.Int64)
	name := stringColumn(d, "c_name")
	age := storage.NewColumn("c_age", types.Int64)
	seg := stringColumn(d, "c_mktsegment")
	nat := storage.NewColumn("c_nationkey", types.Int64)
	bal := storage.NewColumn("c_acctbal", types.Float64)
	segs := internAll(d, mktSegments)
	for i := 0; i < n; i++ {
		key.Ints = append(key.Ints, int64(i+1))
		name.Strs = append(name.Strs, d.Intern(fmt.Sprintf("Customer#%09d", i+1)))
		age.Ints = append(age.Ints, r.rangeInt(18, 92))
		seg.Strs = append(seg.Strs, segs[r.intn(int64(len(segs)))])
		nat.Ints = append(nat.Ints, r.intn(25))
		bal.Floats = append(bal.Floats, -999.99+r.float()*(9999.99+999.99))
	}
	return storage.NewTable("customer", key, name, age, seg, nat, bal)
}

func genOrders(d *storage.Dict, n, nCust int, seed uint64) *storage.Table {
	r := newRNG(seed)
	key := storage.NewColumn("o_orderkey", types.Int64)
	cust := storage.NewColumn("o_custkey", types.Int64)
	date := storage.NewColumn("o_orderdate", types.Date)
	price := storage.NewColumn("o_totalprice", types.Float64)
	prio := storage.NewColumn("o_shippriority", types.Int64)
	status := stringColumn(d, "o_orderstatus")
	statuses := internAll(d, orderStatus)
	span := orderDateHi - orderDateLo + 1
	for i := 0; i < n; i++ {
		key.Ints = append(key.Ints, int64(i+1))
		cust.Ints = append(cust.Ints, r.rangeInt(1, int64(nCust)))
		date.Ints = append(date.Ints, orderDateLo+r.intn(span))
		price.Floats = append(price.Floats, 1000+r.float()*450000)
		prio.Ints = append(prio.Ints, 0)
		status.Strs = append(status.Strs, statuses[r.intn(int64(len(statuses)))])
	}
	return storage.NewTable("orders", key, cust, date, price, prio, status)
}

func genLineitem(d *storage.Dict, orders *storage.Table, nPart, nSupp int, seed uint64) *storage.Table {
	r := newRNG(seed)
	okey := storage.NewColumn("l_orderkey", types.Int64)
	pkey := storage.NewColumn("l_partkey", types.Int64)
	skey := storage.NewColumn("l_suppkey", types.Int64)
	lnum := storage.NewColumn("l_linenumber", types.Int64)
	qty := storage.NewColumn("l_quantity", types.Int64)
	eprice := storage.NewColumn("l_extendedprice", types.Float64)
	disc := storage.NewColumn("l_discount", types.Float64)
	ship := storage.NewColumn("l_shipdate", types.Date)
	rflag := stringColumn(d, "l_returnflag")
	flags := internAll(d, returnFlags)

	orderKeys := orders.Column("o_orderkey").Ints
	orderDates := orders.Column("o_orderdate").Ints
	for i := range orderKeys {
		lines := int(r.rangeInt(1, 7))
		for ln := 0; ln < lines; ln++ {
			q := r.rangeInt(1, 50)
			okey.Ints = append(okey.Ints, orderKeys[i])
			pkey.Ints = append(pkey.Ints, r.rangeInt(1, int64(nPart)))
			skey.Ints = append(skey.Ints, r.rangeInt(1, int64(nSupp)))
			lnum.Ints = append(lnum.Ints, int64(ln+1))
			qty.Ints = append(qty.Ints, q)
			eprice.Floats = append(eprice.Floats, float64(q)*(900+r.float()*1100))
			disc.Floats = append(disc.Floats, float64(r.intn(11))/100)
			ship.Ints = append(ship.Ints, orderDates[i]+r.rangeInt(1, 121))
			rflag.Strs = append(rflag.Strs, flags[r.intn(int64(len(flags)))])
		}
	}
	return storage.NewTable("lineitem", okey, pkey, skey, lnum, qty, eprice, disc, ship, rflag)
}

func genPart(d *storage.Dict, n int, seed uint64) *storage.Table {
	r := newRNG(seed)
	key := storage.NewColumn("p_partkey", types.Int64)
	name := stringColumn(d, "p_name")
	mfgr := stringColumn(d, "p_mfgr")
	brand := stringColumn(d, "p_brand")
	ptype := stringColumn(d, "p_type")
	size := storage.NewColumn("p_size", types.Int64)
	// Manufacturer m is 1..5 and brand b is m*10 + 1..5.
	var mfgrs [6]uint32
	var brands [56]uint32
	for m := 1; m <= 5; m++ {
		mfgrs[m] = d.Intern(fmt.Sprintf("Manufacturer#%d", m))
		for k := 1; k <= 5; k++ {
			brands[m*10+k] = d.Intern(fmt.Sprintf("Brand#%d", m*10+k))
		}
	}
	ptypes := internAll(d, partTypes)
	for i := 0; i < n; i++ {
		m := r.rangeInt(1, 5)
		b := m*10 + r.rangeInt(1, 5)
		key.Ints = append(key.Ints, int64(i+1))
		name.Strs = append(name.Strs, d.Intern(fmt.Sprintf("part %06d", i+1)))
		mfgr.Strs = append(mfgr.Strs, mfgrs[m])
		brand.Strs = append(brand.Strs, brands[b])
		ptype.Strs = append(ptype.Strs, ptypes[r.intn(int64(len(ptypes)))])
		size.Ints = append(size.Ints, r.rangeInt(1, 50))
	}
	return storage.NewTable("part", key, name, mfgr, brand, ptype, size)
}

func genSupplier(d *storage.Dict, n int, seed uint64) *storage.Table {
	r := newRNG(seed)
	key := storage.NewColumn("s_suppkey", types.Int64)
	name := stringColumn(d, "s_name")
	nat := storage.NewColumn("s_nationkey", types.Int64)
	bal := storage.NewColumn("s_acctbal", types.Float64)
	for i := 0; i < n; i++ {
		key.Ints = append(key.Ints, int64(i+1))
		name.Strs = append(name.Strs, d.Intern(fmt.Sprintf("Supplier#%09d", i+1)))
		nat.Ints = append(nat.Ints, r.intn(25))
		bal.Floats = append(bal.Floats, -999.99+r.float()*(9999.99+999.99))
	}
	return storage.NewTable("supplier", key, name, nat, bal)
}

// OrderDateRange reports the generated o_orderdate domain (used by the
// workload generator to position predicate windows).
func OrderDateRange() (lo, hi int64) { return orderDateLo, orderDateHi }
