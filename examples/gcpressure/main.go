// GCPressure exercises the hash-table garbage collector (Section 5 of
// the paper): a long exploration session under a tight cache budget.
// Least-recently-used hash tables are evicted as the session drifts
// across the data; results stay correct throughout.
package main

import (
	"fmt"
	"log"
	"time"

	"hashstash"
)

func main() {
	// A deliberately small cache: a few hash tables at this scale.
	db := hashstash.Open(hashstash.WithTuning(hashstash.Tuning{CacheBudget: 2 << 20}))
	if err := db.LoadTPCH(0.01); err != nil {
		log.Fatal(err)
	}

	months := []string{
		"1994-01-01", "1994-04-01", "1994-07-01", "1994-10-01",
		"1995-01-01", "1995-04-01", "1995-07-01", "1995-10-01",
		"1996-01-01", "1996-04-01", "1995-01-01", "1994-01-01",
	}
	q := `SELECT c.c_age, SUM(l.l_extendedprice) AS revenue
	      FROM customer c, orders o, lineitem l
	      WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
	        AND l.l_shipdate >= DATE '%s' AND l.l_shipdate < DATE '%s'
	      GROUP BY c.c_age`

	start := time.Now()
	for i, lo := range months {
		hi := "1998-12-01"
		if i+1 < len(months) {
			hi = months[(i+3)%len(months)]
		}
		if hi <= lo {
			hi = "1998-12-01"
		}
		res, err := db.Exec(fmt.Sprintf(q, lo, hi))
		if err != nil {
			log.Fatal(err)
		}
		s := db.CacheStats()
		fmt.Printf("window [%s, %s): %3d groups | cache %d tables / %7d B, %d evictions\n",
			lo, hi, len(res.Rows), s.Entries, s.Bytes, s.Evictions)
	}
	s := db.CacheStats()
	fmt.Printf("session done in %v: %d registrations, %d hits, %d evictions\n",
		time.Since(start).Round(time.Millisecond), s.Registered, s.Hits, s.Evictions)
}
