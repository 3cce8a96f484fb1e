package storage

import "slices"

// Dict is an append-only string dictionary: it hands every distinct
// string a dense uint32 code, in first-seen order, and never changes or
// drops a code once handed out. A catalog owns one; every string column
// registered in it, every batch vector read from those columns and
// every hash-table cell holding one of their strings is such a code, so
// equal strings are equal codes everywhere in one catalog. Codes are
// not ordered like their strings: anything that orders strings (ORDER
// BY, index builds, column statistics) compares At(code).
//
// A Dict does not synchronize. It grows only inside schema changes
// (loading, creating or appending to a table), which never run while
// queries do; queries only read it.
type Dict struct {
	strs  []string
	index map[string]uint32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{index: make(map[string]uint32)} }

// Intern returns the code of s, adding s on first use.
func (d *Dict) Intern(s string) uint32 {
	if code, ok := d.index[s]; ok {
		return code
	}
	code := uint32(len(d.strs))
	d.strs = append(d.strs, s)
	d.index[s] = code
	return code
}

// Grow makes room for n more strings: interning up to n new strings
// after it neither regrows the code slice nor rehashes the index. A
// loader that knows how many names it adds calls it once, before the
// first of them. The index is rebuilt at its new size, so Grow costs
// one pass over the strings already held.
func (d *Dict) Grow(n int) {
	if n <= 0 {
		return
	}
	d.strs = slices.Grow(d.strs, n)
	d.index = make(map[string]uint32, len(d.strs)+n)
	for code, s := range d.strs {
		d.index[s] = uint32(code)
	}
}

// Lookup returns the code of s without adding it; ok is false when s
// was never interned (no column holds it).
func (d *Dict) Lookup(s string) (code uint32, ok bool) {
	code, ok = d.index[s]
	return code, ok
}

// At returns the string of a code.
func (d *Dict) At(code uint32) string { return d.strs[code] }

// Len reports how many strings the dictionary holds.
func (d *Dict) Len() int { return len(d.strs) }
