package store

// This file holds the entry table: the per-database intern that makes
// AddSnapshot swap every filed entry for the one canonical entry of its
// value. Most of a release repeats the release before it and derivative
// stores copy NSS (§3.1), so the default corpus's 161,875 filed entries
// are 730 distinct values over 401 certificates: the table keeps one
// struct per value and one DER and parsed certificate per fingerprint.

import (
	"crypto/x509"
	"maps"
	"time"

	"repro/internal/certutil"
)

// sameValue reports whether e and o are equal by value: the same
// fingerprint, label, trust levels and partial-distrust dates. Filed
// entries of one database are equal by value exactly when they are the
// same pointer.
func (e *TrustEntry) sameValue(o *TrustEntry) bool {
	return e == o || e.Fingerprint == o.Fingerprint && e.Label == o.Label && e.trust == o.trust &&
		maps.EqualFunc(e.DistrustAfter, o.DistrustAfter, func(a, b time.Time) bool { return a == b })
}

// certRecord is what the table keeps per fingerprint: the one DER and
// parsed certificate its entries share, its distinct values, and the
// entry DistinctEntries reports for it.
type certRecord struct {
	der    []byte
	cert   *x509.Certificate
	values []*canonical // a handful: stores mostly agree on a root's label and trust
	first  *TrustEntry  // the entry met first in AllSnapshots order
	at     filePos      // where first was met
}

// filePos is a snapshot's place in AllSnapshots order: provider, then
// date, then filing order (History.Append keeps equal dates in the order
// they were filed).
type filePos struct {
	provider string
	date     time.Time
	seq      uint64
}

func (a filePos) before(b filePos) bool {
	if a.provider != b.provider {
		return a.provider < b.provider
	}
	if !a.date.Equal(b.date) {
		return a.date.Before(b.date)
	}
	return a.seq < b.seq
}

// canonical is one distinct entry value the table holds.
type canonical struct {
	e    *TrustEntry
	cert *certRecord
}

// entryTable interns the entries filed in one database. It is not safe
// for concurrent use; neither is AddSnapshot.
type entryTable struct {
	// known maps every filed entry the table has met to its canonical
	// value: the canonical entries themselves, and entries filed in
	// another database (a spliced generation's shared snapshots) after
	// their first sight. A splice that shares a predecessor's snapshots
	// thus pays one pointer lookup per entry, not a re-intern by value.
	known map[*TrustEntry]*canonical
	certs map[certutil.Fingerprint]*certRecord
	seq   uint64  // snapshots filed so far
	last  filePos // the latest position filed so far
}

func newEntryTable() entryTable {
	return entryTable{
		known: make(map[*TrustEntry]*canonical),
		certs: make(map[certutil.Fingerprint]*certRecord),
	}
}

// file swaps each of s's entries for its canonical entry and notes where
// each certificate was first met.
//
// Producers mostly file in AllSnapshots order (the archive reader, the
// catalog's scan order, a reload's splice), and a snapshot filed after
// every other one can only be the first to hold a certificate it
// introduces: only a snapshot filed out of order compares positions.
func (t *entryTable) file(s *Snapshot) {
	pos := filePos{provider: s.Provider, date: s.Date, seq: t.seq}
	t.seq++
	inOrder := t.last.before(pos)
	if inOrder {
		t.last = pos
	}
	for i, e := range s.entries {
		var c *canonical
		if e.filed { // only a filed entry can be known
			c = t.known[e]
		}
		if c == nil {
			c = t.intern(e)
		}
		if c.e != e {
			s.entries[i] = c.e
		}
		if r := c.cert; r.first == nil || !inOrder && pos.before(r.at) {
			r.first, r.at = c.e, pos
		}
	}
}

// intern finds or makes the canonical entry of e's value and marks e
// filed.
func (t *entryTable) intern(e *TrustEntry) *canonical {
	r := t.certs[e.Fingerprint]
	if r == nil {
		r = &certRecord{der: e.DER, cert: e.Cert}
		t.certs[e.Fingerprint] = r
	}
	c := r.find(e)
	if c == nil {
		c = t.adopt(e, r)
	}
	if e.filed {
		t.known[e] = c
	} else {
		e.filed = true
	}
	return c
}

// find returns the canonical entry equal to e by value, if r has one.
func (r *certRecord) find(e *TrustEntry) *canonical {
	for _, c := range r.values {
		if c.e.sameValue(e) {
			return c
		}
	}
	return nil
}

// adopt makes e, or a copy of it when e belongs to another database, the
// canonical entry of its value, sharing r's DER and certificate.
func (t *entryTable) adopt(e *TrustEntry, r *certRecord) *canonical {
	switch {
	case r.cert == nil:
		r.der, r.cert = e.DER, e.Cert
	case e.Cert != nil && (e.Cert != r.cert || !sameBytes(e.DER, r.der)):
		if e.filed {
			e = e.Clone() // another database serves e as it is
			e.filed = true
		}
		e.DER, e.Cert = r.der, r.cert
	}
	c := &canonical{e: e, cert: r}
	r.values = append(r.values, c)
	t.known[e] = c
	return c
}

// sameBytes reports whether a and b are the same slice, not merely equal.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
