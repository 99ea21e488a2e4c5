package store

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/certutil"
)

// TrustChange records a trust-metadata change for a certificate present in
// both snapshots — e.g. NSS applying server-distrust-after to a Symantec
// root without removing it.
type TrustChange struct {
	Fingerprint certutil.Fingerprint
	Label       string
	Purpose     Purpose
	Old, New    TrustLevel
	// DistrustAfterSet is true when the change introduced or altered a
	// partial-distrust date for the purpose.
	DistrustAfterSet bool
	DistrustAfter    time.Time
	// DistrustAfterCleared is true when the old snapshot carried a
	// partial-distrust date for the purpose and the new one dropped it —
	// a re-trust, which relying parties care about as much as the
	// distrust itself.
	DistrustAfterCleared bool
}

// String renders the change for logs.
func (c TrustChange) String() string {
	s := fmt.Sprintf("%s %s %s: %s -> %s", c.Fingerprint.Short(), c.Label, c.Purpose, c.Old, c.New)
	if c.DistrustAfterSet {
		s += fmt.Sprintf(" (distrust-after %s)", c.DistrustAfter.Format("2006-01-02"))
	}
	if c.DistrustAfterCleared {
		s += " (distrust-after cleared)"
	}
	return s
}

// Diff is the difference between two snapshots.
type Diff struct {
	// Added / Removed hold entries present in only the new / old snapshot.
	Added   []*TrustEntry
	Removed []*TrustEntry
	// TrustChanges holds per-purpose trust transitions for retained
	// certificates.
	TrustChanges []TrustChange
}

// Empty reports whether the snapshots are identical under the diff.
func (d Diff) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.TrustChanges) == 0
}

// String summarizes the diff.
func (d Diff) String() string {
	return fmt.Sprintf("+%d -%d ~%d", len(d.Added), len(d.Removed), len(d.TrustChanges))
}

// DiffSnapshots computes new-relative-to-old membership and trust changes.
// Added and Removed are sorted by fingerprint and TrustChanges by
// (fingerprint, purpose), so diff output — and the change events built from
// it — is byte-stable across runs regardless of map iteration order. Both
// snapshots keep their entries in fingerprint order, so one merge walk
// emits every list already sorted.
func DiffSnapshots(old, new *Snapshot) Diff {
	var d Diff
	a, b := old.entries, new.entries
	for len(a) > 0 || len(b) > 0 {
		c := 1 // only a is left: the rest was removed
		if len(a) == 0 {
			c = -1 // only b is left: the rest was added
		} else if len(b) > 0 {
			c = b[0].Fingerprint.Compare(a[0].Fingerprint)
		}
		switch {
		case c < 0:
			d.Added = append(d.Added, b[0])
			b = b[1:]
		case c > 0:
			d.Removed = append(d.Removed, a[0])
			a = a[1:]
		default:
			d.TrustChanges = appendTrustChanges(d.TrustChanges, a[0], b[0])
			a, b = a[1:], b[1:]
		}
	}
	return d
}

// appendTrustChanges appends, in purpose order, the trust transitions of
// one certificate present in both snapshots.
func appendTrustChanges(out []TrustChange, prev, e *TrustEntry) []TrustChange {
	for _, p := range AllPurposes {
		oldLevel, newLevel := prev.TrustFor(p), e.TrustFor(p)
		oldDA, hadDA := prev.DistrustAfterFor(p)
		newDA, hasDA := e.DistrustAfterFor(p)
		daSet := hasDA && (!hadDA || !oldDA.Equal(newDA))
		daCleared := hadDA && !hasDA
		if oldLevel != newLevel || daSet || daCleared {
			tc := TrustChange{
				Fingerprint: e.Fingerprint,
				Label:       e.Label,
				Purpose:     p,
				Old:         oldLevel,
				New:         newLevel,
			}
			if daSet {
				tc.DistrustAfterSet = true
				tc.DistrustAfter = newDA
			}
			tc.DistrustAfterCleared = daCleared
			out = append(out, tc)
		}
	}
	return out
}

// SetDiff compares the purpose-trusted sets of two snapshots: fingerprints
// only in a, only in b, and in both. This is the root-membership view
// Figure 4 plots for derivatives against NSS.
func SetDiff(a, b *Snapshot, p Purpose) (onlyA, onlyB, both []certutil.Fingerprint) {
	setA, setB := a.TrustedSet(p), b.TrustedSet(p)
	for fp := range setA {
		if setB[fp] {
			both = append(both, fp)
		} else {
			onlyA = append(onlyA, fp)
		}
	}
	for fp := range setB {
		if !setA[fp] {
			onlyB = append(onlyB, fp)
		}
	}
	slices.SortFunc(onlyA, certutil.Fingerprint.Compare)
	slices.SortFunc(onlyB, certutil.Fingerprint.Compare)
	slices.SortFunc(both, certutil.Fingerprint.Compare)
	return onlyA, onlyB, both
}
