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
//
// Every column is allocated once, at its table's exact row count, and
// written by index. Customer, orders, part and supplier take their row
// counts from the scale factor. Lineitem's depends on the line count
// each order draws, so a pre-pass walks the lineitem stream first: it
// draws each order's line count and skips the draws of its lines (a
// splitmix64 draw only adds a constant to the state, so k draws are
// skipped by adding k times it). The pre-pass yields the row count and
// the stream state and first row of the middle order. The lines of the
// first half of the orders are then filled on the caller and those of
// the second half on one goroutine, joined before Generate returns. The
// split is fixed at half the orders, not taken from GOMAXPROCS, so
// every machine makes the same bytes through the same code path.
//
// Names (Customer#000000001, part 000001, Supplier#000000001) are
// written into one buffer per table and interned as substrings of one
// string, into a dictionary grown once for all of them.
package tpch

import (
	"fmt"
	"strconv"
	"strings"

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

// gamma is splitmix64's increment: each draw adds it to the state.
const gamma = 0x9e3779b97f4a7c15

func (r *rng) next() uint64 {
	r.state += gamma
	return types.Mix64(r.state)
}

// skip advances the stream past k draws without making them.
func (r *rng) skip(k int) { r.state += uint64(k) * gamma }

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

// Manufacturer m is 1..mfgrCount, and each has brandsPerMfgr brands.
const mfgrCount, brandsPerMfgr = 5, 5

// vocabulary counts the fixed words the tables intern besides their
// names.
var vocabulary = len(mktSegments) + mfgrCount*(1+brandsPerMfgr) + len(partTypes) + len(orderStatus) + len(returnFlags)

// lineDraws is how many draws each lineitem row makes after its
// order's line count.
const lineDraws = 7

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
	d.Grow(nCust + nPart + nSupp + vocabulary)

	// The tables intern in this order, which fixes the codes: segments,
	// customer names, manufacturers and brands, part types, part names,
	// supplier names, order statuses, return flags.
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

// intColumn, floatColumn and stringColumn return columns of n zero rows,
// a string column coded against d.
func intColumn(name string, kind types.Kind, n int) *storage.Column {
	return &storage.Column{Name: name, Kind: kind, Ints: make([]int64, n)}
}

func floatColumn(name string, n int) *storage.Column {
	return &storage.Column{Name: name, Kind: types.Float64, Floats: make([]float64, n)}
}

func stringColumn(d *storage.Dict, name string, n int) *storage.Column {
	return &storage.Column{Name: name, Kind: types.String, Strs: make([]uint32, n), Dict: d}
}

// internAll interns a fixed vocabulary once: a row then takes the code
// of the word its draw picks, with no dictionary lookup.
func internAll(d *storage.Dict, words []string) []uint32 {
	codes := make([]uint32, len(words))
	for i, w := range words {
		codes[i] = d.Intern(w)
	}
	return codes
}

// internNumbered interns the names prefix+1, prefix+2, ... with the
// number zero-padded to width digits (fmt's %0*d), and writes the code
// of name i+1 to codes[i]. The names are substrings of one string built
// in one buffer, so no name is an allocation of its own.
func internNumbered(d *storage.Dict, codes []uint32, prefix string, width int) {
	nameLen := func(i int) int { return len(prefix) + max(width, digits(i)) }
	var b strings.Builder
	b.Grow(len(codes) * nameLen(len(codes)))
	var num [20]byte
	for i := 1; i <= len(codes); i++ {
		b.WriteString(prefix)
		for range width - digits(i) {
			b.WriteByte('0')
		}
		b.Write(strconv.AppendInt(num[:0], int64(i), 10))
	}
	names := b.String()
	off := 0
	for i := range codes {
		end := off + nameLen(i+1)
		codes[i] = d.Intern(names[off:end])
		off = end
	}
}

// digits counts the decimal digits of v > 0.
func digits(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

func genCustomer(d *storage.Dict, n int, seed uint64) *storage.Table {
	r := newRNG(seed)
	key := intColumn("c_custkey", types.Int64, n)
	name := stringColumn(d, "c_name", n)
	age := intColumn("c_age", types.Int64, n)
	seg := stringColumn(d, "c_mktsegment", n)
	nat := intColumn("c_nationkey", types.Int64, n)
	bal := floatColumn("c_acctbal", n)
	segs := internAll(d, mktSegments)
	internNumbered(d, name.Strs, "Customer#", 9)
	for i := range n {
		key.Ints[i] = int64(i + 1)
		age.Ints[i] = r.rangeInt(18, 92)
		seg.Strs[i] = segs[r.intn(int64(len(segs)))]
		nat.Ints[i] = r.intn(25)
		bal.Floats[i] = -999.99 + r.float()*(9999.99+999.99)
	}
	return storage.NewTable("customer", key, name, age, seg, nat, bal)
}

func genOrders(d *storage.Dict, n, nCust int, seed uint64) *storage.Table {
	r := newRNG(seed)
	key := intColumn("o_orderkey", types.Int64, n)
	cust := intColumn("o_custkey", types.Int64, n)
	date := intColumn("o_orderdate", types.Date, n)
	price := floatColumn("o_totalprice", n)
	prio := intColumn("o_shippriority", types.Int64, n) // 0 on every row
	status := stringColumn(d, "o_orderstatus", n)
	statuses := internAll(d, orderStatus)
	span := orderDateHi - orderDateLo + 1
	for i := range n {
		key.Ints[i] = int64(i + 1)
		cust.Ints[i] = r.rangeInt(1, int64(nCust))
		date.Ints[i] = orderDateLo + r.intn(span)
		price.Floats[i] = 1000 + r.float()*450000
		status.Strs[i] = statuses[r.intn(int64(len(statuses)))]
	}
	return storage.NewTable("orders", key, cust, date, price, prio, status)
}

func genLineitem(d *storage.Dict, orders *storage.Table, nPart, nSupp int, seed uint64) *storage.Table {
	flags := internAll(d, returnFlags)
	orderKeys := orders.Column("o_orderkey").Ints
	orderDates := orders.Column("o_orderdate").Ints

	// The pre-pass: count the rows, and note where the middle order's
	// lines start in the stream and in the table.
	r := newRNG(seed)
	mid := len(orderKeys) / 2
	var midRNG rng
	rows, midRow := 0, 0
	for i := range orderKeys {
		if i == mid {
			midRNG, midRow = *r, rows
		}
		lines := int(r.rangeInt(1, 7))
		r.skip(lineDraws * lines)
		rows += lines
	}

	okey := intColumn("l_orderkey", types.Int64, rows)
	pkey := intColumn("l_partkey", types.Int64, rows)
	skey := intColumn("l_suppkey", types.Int64, rows)
	lnum := intColumn("l_linenumber", types.Int64, rows)
	qty := intColumn("l_quantity", types.Int64, rows)
	eprice := floatColumn("l_extendedprice", rows)
	disc := floatColumn("l_discount", rows)
	ship := intColumn("l_shipdate", types.Date, rows)
	rflag := stringColumn(d, "l_returnflag", rows)
	// fill draws the lines of orders [lo, hi) from r, which stands at
	// order lo's first draw, and writes them from row on.
	fill := func(r rng, lo, hi, row int) {
		for i := lo; i < hi; i++ {
			lines := int(r.rangeInt(1, 7))
			for ln := range lines {
				q := r.rangeInt(1, 50)
				okey.Ints[row] = orderKeys[i]
				pkey.Ints[row] = r.rangeInt(1, int64(nPart))
				skey.Ints[row] = r.rangeInt(1, int64(nSupp))
				lnum.Ints[row] = int64(ln + 1)
				qty.Ints[row] = q
				eprice.Floats[row] = float64(q) * (900 + r.float()*1100)
				disc.Floats[row] = float64(r.intn(11)) / 100
				ship.Ints[row] = orderDates[i] + r.rangeInt(1, 121)
				rflag.Strs[row] = flags[r.intn(int64(len(flags)))]
				row++
			}
		}
	}
	// The two halves write disjoint row ranges of the same slices.
	done := make(chan struct{})
	go func() {
		defer close(done)
		fill(midRNG, mid, len(orderKeys), midRow)
	}()
	fill(*newRNG(seed), 0, mid, 0)
	<-done
	return storage.NewTable("lineitem", okey, pkey, skey, lnum, qty, eprice, disc, ship, rflag)
}

func genPart(d *storage.Dict, n int, seed uint64) *storage.Table {
	r := newRNG(seed)
	key := intColumn("p_partkey", types.Int64, n)
	name := stringColumn(d, "p_name", n)
	mfgr := stringColumn(d, "p_mfgr", n)
	brand := stringColumn(d, "p_brand", n)
	ptype := stringColumn(d, "p_type", n)
	size := intColumn("p_size", types.Int64, n)
	// Brand b of manufacturer m is m*10 + 1..brandsPerMfgr.
	var mfgrs [mfgrCount + 1]uint32
	var brands [mfgrCount*10 + brandsPerMfgr + 1]uint32
	for m := 1; m <= mfgrCount; m++ {
		mfgrs[m] = d.Intern(fmt.Sprintf("Manufacturer#%d", m))
		for k := 1; k <= brandsPerMfgr; k++ {
			brands[m*10+k] = d.Intern(fmt.Sprintf("Brand#%d", m*10+k))
		}
	}
	ptypes := internAll(d, partTypes)
	internNumbered(d, name.Strs, "part ", 6)
	for i := range n {
		m := r.rangeInt(1, mfgrCount)
		b := m*10 + r.rangeInt(1, brandsPerMfgr)
		key.Ints[i] = int64(i + 1)
		mfgr.Strs[i] = mfgrs[m]
		brand.Strs[i] = brands[b]
		ptype.Strs[i] = ptypes[r.intn(int64(len(ptypes)))]
		size.Ints[i] = r.rangeInt(1, 50)
	}
	return storage.NewTable("part", key, name, mfgr, brand, ptype, size)
}

func genSupplier(d *storage.Dict, n int, seed uint64) *storage.Table {
	r := newRNG(seed)
	key := intColumn("s_suppkey", types.Int64, n)
	name := stringColumn(d, "s_name", n)
	nat := intColumn("s_nationkey", types.Int64, n)
	bal := floatColumn("s_acctbal", n)
	internNumbered(d, name.Strs, "Supplier#", 9)
	for i := range n {
		key.Ints[i] = int64(i + 1)
		nat.Ints[i] = r.intn(25)
		bal.Floats[i] = -999.99 + r.float()*(9999.99+999.99)
	}
	return storage.NewTable("supplier", key, name, nat, bal)
}

// OrderDateRange reports the generated o_orderdate domain (used by the
// workload generator to position predicate windows).
func OrderDateRange() (lo, hi int64) { return orderDateLo, orderDateHi }
