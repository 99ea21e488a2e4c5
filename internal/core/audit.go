package core

import (
	"fmt"
	"time"

	"repro/internal/certutil"
	"repro/internal/store"
)

// FindingKind classifies a derivative-audit finding. The kinds correspond
// to the §6 failure modes the paper documents and the §7 recommendations.
type FindingKind string

// Audit finding kinds.
const (
	// FindingStale: the derivative's latest snapshot trails the upstream
	// mainline by more than the configured number of substantial versions.
	FindingStale FindingKind = "stale"
	// FindingRetainedRemoval: the derivative still trusts a root its
	// upstream removed (the AmazonLinux 1024-bit re-add pattern).
	FindingRetainedRemoval FindingKind = "retained-removal"
	// FindingForeignRoot: the derivative trusts a root its upstream never
	// trusted for the purpose (non-NSS roots; email-signing conflation).
	FindingForeignRoot FindingKind = "foreign-root"
	// FindingLostPartialDistrust: the upstream constrains a root with a
	// partial-distrust cutoff the derivative cannot express, so the
	// derivative extends strictly more trust (the Symantec failure).
	FindingLostPartialDistrust FindingKind = "lost-partial-distrust"
	// FindingExpiredRoot: the derivative ships a root past its validity.
	FindingExpiredRoot FindingKind = "expired-root"
	// FindingMissingRoot: the upstream trusts a root the derivative
	// lacks, degrading compatibility rather than safety.
	FindingMissingRoot FindingKind = "missing-root"
)

// Finding is one audit observation.
type Finding struct {
	Kind        FindingKind
	Fingerprint certutil.Fingerprint
	Label       string
	Detail      string
}

// String renders the finding.
func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s %s: %s", f.Kind, f.Fingerprint.Short(), f.Label, f.Detail)
}

// AuditReport is the outcome of auditing a derivative snapshot against its
// upstream.
type AuditReport struct {
	Derivative string
	Upstream   string
	// At is the audit instant (the derivative snapshot's date).
	At time.Time
	// UpstreamVersion is the upstream substantial-version index compared
	// against (the newest at the audit instant).
	UpstreamVersion int
	// VersionsBehind is the gap between the matched and current upstream
	// versions.
	VersionsBehind int
	Findings       []Finding
}

// CountByKind tallies findings per kind.
func (r *AuditReport) CountByKind() map[FindingKind]int {
	out := map[FindingKind]int{}
	for _, f := range r.Findings {
		out[f.Kind]++
	}
	return out
}

// AuditConfig tunes the derivative audit.
type AuditConfig struct {
	// MaxVersionsBehind triggers FindingStale beyond this gap (default 1).
	MaxVersionsBehind int
}

// AuditDerivative inspects a derivative's state at an instant against its
// upstream provider — the linter §7 implies derivative maintainers need.
// It compares the derivative snapshot in force at `at` with the newest
// upstream snapshot at the same instant, plus the upstream's removal
// history.
func (p *Pipeline) AuditDerivative(derivative, upstream string, at time.Time, cfg AuditConfig) (*AuditReport, error) {
	if cfg.MaxVersionsBehind <= 0 {
		cfg.MaxVersionsBehind = 1
	}
	dh, uh := p.DB.History(derivative), p.DB.History(upstream)
	if dh == nil {
		return nil, fmt.Errorf("core: no history for derivative %q", derivative)
	}
	if uh == nil {
		return nil, fmt.Errorf("core: no history for upstream %q", upstream)
	}
	dsnap := dh.At(at)
	usnap := uh.At(at)
	if dsnap == nil || usnap == nil {
		return nil, fmt.Errorf("core: no snapshots in force at %s", at.Format("2006-01-02"))
	}

	report := &AuditReport{Derivative: derivative, Upstream: upstream, At: dsnap.Date}

	// Version gap via the Figure 3 machinery.
	st := p.DerivativeStaleness(derivative, upstream, dsnap.Date.AddDate(0, 0, -1), dsnap.Date.AddDate(0, 0, 1))
	if st != nil && len(st.Points) > 0 {
		last := st.Points[len(st.Points)-1]
		report.UpstreamVersion = last.Current
		report.VersionsBehind = last.Behind
		if last.Behind > cfg.MaxVersionsBehind {
			report.Findings = append(report.Findings, Finding{
				Kind:   FindingStale,
				Detail: fmt.Sprintf("derivative matches upstream version %d; mainline is %d (%d behind)", last.Matched, last.Current, last.Behind),
			})
		}
	}

	upstreamEver := uh.EverTrusted(p.Purpose)
	upstreamNow := usnap.TrustedSet(p.Purpose)

	for _, e := range dsnap.Entries() {
		if !e.TrustedFor(p.Purpose) {
			continue
		}
		fp := e.Fingerprint
		switch {
		case upstreamNow[fp]:
			// Shared root: check partial-distrust fidelity.
			ue, _ := usnap.Lookup(fp)
			if ue != nil {
				if cutoff, ok := ue.DistrustAfterFor(p.Purpose); ok {
					if _, has := e.DistrustAfterFor(p.Purpose); !has {
						report.Findings = append(report.Findings, Finding{
							Kind:        FindingLostPartialDistrust,
							Fingerprint: fp,
							Label:       e.Label,
							Detail: fmt.Sprintf("upstream rejects issuance after %s; derivative trusts unconditionally",
								cutoff.Format("2006-01-02")),
						})
					}
				}
			}
		case upstreamEver[fp]:
			until, _, _ := uh.TrustedUntil(fp, p.Purpose)
			report.Findings = append(report.Findings, Finding{
				Kind:        FindingRetainedRemoval,
				Fingerprint: fp,
				Label:       e.Label,
				Detail:      fmt.Sprintf("upstream last trusted this root on %s", until.Format("2006-01-02")),
			})
		default:
			report.Findings = append(report.Findings, Finding{
				Kind:        FindingForeignRoot,
				Fingerprint: fp,
				Label:       e.Label,
				Detail:      "root was never trusted by the upstream for this purpose",
			})
		}
		if certutil.ExpiredAt(e.Cert, dsnap.Date) {
			report.Findings = append(report.Findings, Finding{
				Kind:        FindingExpiredRoot,
				Fingerprint: fp,
				Label:       e.Label,
				Detail:      fmt.Sprintf("expired %s", e.Cert.NotAfter.Format("2006-01-02")),
			})
		}
	}

	derivSet := dsnap.TrustedSet(p.Purpose)
	for fp := range upstreamNow {
		if derivSet[fp] {
			continue
		}
		ue, _ := usnap.Lookup(fp)
		label := ""
		if ue != nil {
			label = ue.Label
		}
		report.Findings = append(report.Findings, Finding{
			Kind:        FindingMissingRoot,
			Fingerprint: fp,
			Label:       label,
			Detail:      "upstream trusts this root; derivative lacks it",
		})
	}
	return report, nil
}

// SplitByPurpose implements the paper's §7 single-purpose recommendation:
// partition a snapshot into per-purpose stores, each containing only the
// entries trusted for that purpose with their metadata restricted to it.
// This is the tls/email/objsign-ca-bundle.pem layout RHEL and AmazonLinux
// adopted.
func SplitByPurpose(s *store.Snapshot) map[store.Purpose]*store.Snapshot {
	out := make(map[store.Purpose]*store.Snapshot, len(store.AllPurposes))
	for _, p := range store.AllPurposes {
		split := store.NewSnapshot(s.Provider, s.Version+"/"+p.String(), s.Date)
		for _, e := range s.Entries() {
			if !e.TrustedFor(p) {
				continue
			}
			ne := e.Clone()
			for _, q := range store.AllPurposes {
				ne.SetTrust(q, store.Unspecified)
			}
			ne.SetTrust(p, store.Trusted)
			if da, ok := e.DistrustAfterFor(p); ok {
				ne.DistrustAfter = map[store.Purpose]time.Time{p: da}
			} else {
				ne.DistrustAfter = nil
			}
			split.Add(ne)
		}
		out[p] = split
	}
	return out
}
