// Package synth generates the synthetic root-store ecosystem the
// reproduction runs on: a population of genuine CA certificates (real keys,
// real DER, including legacy MD5/1024-bit material) and, for each of the
// paper's ten providers, a history of dated snapshots whose membership is
// driven by the published ground truth in internal/paperdata — program
// growth, hygiene purges (Table 3), high-severity incidents (Table 4),
// program-exclusive roots (Table 6), and the derivative copying behaviours
// of §6 (staleness, Symantec partial-distrust failures, email-signing
// conflation, non-NSS roots, custom trust).
//
// The paper's own inputs (21 years of scraped release archives) are
// proprietary and unavailable offline; this simulator is the substitution
// documented in DESIGN.md. Every downstream analysis parses the same
// certificate-level data structures (and, via the codecs, the same
// bytes-on-disk formats) the paper's pipeline consumed.
package synth

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/certgen"
	"repro/internal/certutil"
	"repro/internal/paperdata"
	"repro/internal/store"
)

// Category classifies a synthetic CA's role in the ecosystem narrative.
type Category string

// CA categories.
const (
	CatMainstream Category = "mainstream"  // trusted broadly across programs
	CatLegacyMD5  Category = "legacy-md5"  // MD5-signed roots purged per Table 3
	CatLegacyRSA  Category = "legacy-rsa"  // 1024-bit RSA roots purged per Table 3
	CatExpiring   Category = "expiring"    // roots whose validity lapses mid-study
	CatEmailOnly  Category = "email-only"  // NSS email-only roots (conflation analysis)
	CatExclusive  Category = "exclusive"   // program-exclusive roots (Table 6)
	CatIncident   Category = "incident"    // roots removed in Table 4 incidents
	CatSymantec   Category = "symantec"    // the partial-distrust cohort
	CatMSExtra    Category = "ms-extra"    // Microsoft non-TLS bulk (email/code)
	CatAppleExtra Category = "apple-extra" // Apple's wider store
	CatMSLegacy   Category = "ms-legacy"   // NSS-then-Microsoft retained TLS roots
	CatNonNSS     Category = "non-nss"     // Debian/Ubuntu/Amazon roots never in NSS
	CatCTOnly     Category = "ct-only"     // submission roots only CT logs accept
	CatTPMOnly    Category = "tpm-only"    // TPM vendor EK roots outside TLS entirely
)

// CA is one synthetic certification authority: a minted root plus the
// metadata the scheduler keys on.
type CA struct {
	Name     string
	Category Category
	Root     *certgen.Root
	// Incident links incident-category CAs to their paperdata incident.
	Incident string
	// Program scopes exclusive/extra roots to their program.
	Program string
	// JoinYear is the nominal year the CA entered the ecosystem.
	JoinYear int

	fp certutil.Fingerprint // of Root.DER, computed once at minting
}

// Universe is the full CA population, indexed by name.
type Universe struct {
	CAs    []*CA
	byName map[string]*CA
	pool   *certgen.KeyPool
}

// Lookup finds a CA by name.
func (u *Universe) Lookup(name string) *CA { return u.byName[name] }

// ByCategory returns the CAs in a category, in creation order.
func (u *Universe) ByCategory(c Category) []*CA {
	var out []*CA
	for _, ca := range u.CAs {
		if ca.Category == c {
			out = append(out, ca)
		}
	}
	return out
}

// ByIncident returns the CAs tied to a named incident.
func (u *Universe) ByIncident(name string) []*CA {
	var out []*CA
	for _, ca := range u.CAs {
		if ca.Incident == name {
			out = append(out, ca)
		}
	}
	return out
}

// Entry builds a fresh trust entry for a CA (no purposes set). Entries
// share the minted DER and parsed certificate, both immutable by the same
// convention archive-decoded entries share them under, so a snapshot costs
// a small struct per member rather than a copy of every certificate.
func (ca *CA) Entry() *store.TrustEntry {
	return &store.TrustEntry{
		DER:         ca.Root.DER,
		Cert:        ca.Root.Cert,
		Fingerprint: ca.fp,
		Label:       ca.Name,
		Trust:       make(map[store.Purpose]store.TrustLevel),
	}
}

// universeSpec is one row of the population plan.
type universeSpec struct {
	namePrefix string
	count      int
	category   Category
	key        certgen.KeySpec
	sig        certgen.Algorithm
	notBefore  time.Time
	notAfter   time.Time
	incident   string
	program    string
	joinYear   int
}

func date(y, m, d int) time.Time { return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC) }

// NewUniverse mints the full CA population. Deterministic for a seed.
func NewUniverse(seed string) (*Universe, error) {
	u := &Universe{byName: make(map[string]*CA), pool: certgen.NewKeyPool(seed)}

	var specs []universeSpec

	// Mainstream cohorts: 14 cohorts of 8 CAs joining 2000..2018, long
	// validity. These form the broad overlap that makes each family's
	// snapshots cluster tightly in Figure 1.
	for cohort := 0; cohort < 14; cohort++ {
		year := 2000 + (cohort*10)/13 // staggered 2000..2010
		specs = append(specs, universeSpec{
			namePrefix: fmt.Sprintf("Mainstream %02d", cohort),
			count:      8,
			category:   CatMainstream,
			key:        certgen.RSA2048,
			sig:        certgen.SHA256WithRSA,
			notBefore:  date(year, 1, 1),
			notAfter:   date(year+30, 1, 1),
			joinYear:   year,
		})
	}

	// Legacy MD5-signed roots (purged per Table 3 MD5 column).
	specs = append(specs, universeSpec{
		namePrefix: "Legacy MD5", count: 10, category: CatLegacyMD5,
		key: certgen.RSA2048, sig: certgen.MD5WithRSA,
		notBefore: date(1998, 1, 1), notAfter: date(2028, 1, 1), joinYear: 2000,
	})

	// Legacy 1024-bit RSA roots (purged per Table 3 1024-bit column);
	// sixteen of them so AmazonLinux's re-add of sixteen (§6.2) is exact.
	specs = append(specs, universeSpec{
		namePrefix: "Legacy RSA1024", count: 16, category: CatLegacyRSA,
		key: certgen.RSA1024, sig: certgen.SHA1WithRSA,
		notBefore: date(1999, 1, 1), notAfter: date(2029, 1, 1), joinYear: 2000,
	})

	// Expiring roots: validity ends mid-study; programs differ in how
	// promptly they drop them (Table 3 Avg. Expired).
	for i, exp := range []int{2008, 2008, 2009, 2010, 2010, 2011, 2012, 2012, 2013, 2014, 2014, 2015, 2015, 2016, 2016, 2017, 2017, 2018, 2018, 2019, 2019, 2020, 2020, 2020} {
		specs = append(specs, universeSpec{
			namePrefix: fmt.Sprintf("Expiring %02d", i), count: 1, category: CatExpiring,
			key: certgen.RSA2048, sig: certgen.SHA256WithRSA,
			notBefore: date(exp-15, 1, 1), notAfter: date(exp, 6, 1), joinYear: exp - 15,
		})
	}

	// NSS email-only roots: never TLS-trusted by NSS. Debian/Ubuntu
	// wrongly TLS-trusted 19, Alpine 4 (§6.2 "Email signing").
	specs = append(specs, universeSpec{
		namePrefix: "Email Only", count: 19, category: CatEmailOnly,
		key: certgen.RSA2048, sig: certgen.SHA256WithRSA,
		notBefore: date(2004, 1, 1), notAfter: date(2034, 1, 1), joinYear: 2005,
	})

	// Program-exclusive roots per Table 6.
	for _, ex := range paperdata.ExclusiveRoots() {
		keySpec, sig := certgen.RSA2048, certgen.SHA256WithRSA
		if ex.ShortHash == "beb00b30" {
			keySpec, sig = certgen.ECDSA256, certgen.ECDSAWithSHA256 // Microsec ECC
		}
		specs = append(specs, universeSpec{
			namePrefix: fmt.Sprintf("Exclusive %s %s (%s)", ex.Program, ex.CA, ex.ShortHash),
			count:      1, category: CatExclusive,
			key: keySpec, sig: sig,
			notBefore: date(2012, 1, 1), notAfter: date(2037, 1, 1),
			program: ex.Program, joinYear: 2014,
		})
	}

	// Incident CAs per Table 4.
	for _, inc := range paperdata.Incidents() {
		nb := inc.NSSRemoval.AddDate(-12, 0, 0)
		specs = append(specs, universeSpec{
			namePrefix: "Incident " + inc.Name, count: inc.NSSCerts, category: CatIncident,
			key: certgen.RSA2048, sig: certgen.SHA256WithRSA,
			notBefore: nb, notAfter: nb.AddDate(25, 0, 0),
			incident: inc.Name, joinYear: nb.Year(),
		})
	}

	// The Symantec partial-distrust cohort: twelve roots get
	// server-distrust-after in NSS 3.53 (§6.2), plus TWCA and SK ID whose
	// same-version removals NodeJS preserved.
	specs = append(specs,
		universeSpec{
			namePrefix: "Symantec", count: 12, category: CatSymantec,
			key: certgen.RSA2048, sig: certgen.SHA256WithRSA,
			notBefore: date(2006, 1, 1), notAfter: date(2036, 1, 1), joinYear: 2006,
		},
		universeSpec{
			// The three roots NSS removed outright alongside the v53
			// partial distrust (Table 7, bug 1618402).
			namePrefix: "Symantec Retired", count: 3, category: CatSymantec,
			incident: "SymantecRetired",
			key:      certgen.RSA2048, sig: certgen.SHA256WithRSA,
			notBefore: date(2004, 1, 1), notAfter: date(2034, 1, 1), joinYear: 2005,
		},
		universeSpec{
			namePrefix: "TWCA Policy", count: 1, category: CatIncident, incident: "TWCA",
			key: certgen.RSA2048, sig: certgen.SHA256WithRSA,
			notBefore: date(2008, 1, 1), notAfter: date(2038, 1, 1), joinYear: 2008,
		},
		universeSpec{
			namePrefix: "SK ID Solutions", count: 1, category: CatIncident, incident: "SKID",
			key: certgen.RSA2048, sig: certgen.SHA256WithRSA,
			notBefore: date(2008, 1, 1), notAfter: date(2038, 1, 1), joinYear: 2008,
		},
	)

	// Microsoft's non-TLS bulk: email/code-signing-only roots that inflate
	// its store size (Table 3) without appearing TLS-exclusive (Table 6).
	specs = append(specs, universeSpec{
		namePrefix: "MS NonTLS", count: 20, category: CatMSExtra,
		key: certgen.RSA2048, sig: certgen.SHA256WithRSA,
		notBefore: date(2005, 1, 1), notAfter: date(2035, 1, 1),
		program: paperdata.Microsoft, joinYear: 2007,
	})

	// The Apple/Microsoft shared block: CAs both permissive programs trust
	// for TLS that never passed NSS review. They widen both stores without
	// being Table 6 exclusives (two programs trust them).
	specs = append(specs, universeSpec{
		namePrefix: "Apple Extra", count: 60, category: CatAppleExtra,
		key: certgen.RSA2048, sig: certgen.SHA256WithRSA,
		notBefore: date(2004, 1, 1), notAfter: date(2036, 1, 1),
		program: paperdata.Apple, joinYear: 2005,
	})

	// Microsoft's retained-legacy TLS block: roots NSS trusted in the
	// early 2000s and removed by 2008, which Microsoft kept. They give
	// Microsoft its distinct identity in the ordination without counting
	// as Table 6 exclusives (NSS *ever* trusted them).
	specs = append(specs, universeSpec{
		namePrefix: "MS Retained", count: 45, category: CatMSLegacy,
		key: certgen.RSA2048, sig: certgen.SHA256WithRSA,
		notBefore: date(2001, 1, 1), notAfter: date(2033, 1, 1),
		program: paperdata.Microsoft, joinYear: 2003,
	})

	// Roots that were never in NSS but appeared in Debian/Ubuntu
	// (CAcert 3, SPI 3, Debian 2, TP Internet 9, DCSSI 1, Brazil NIIT 1 =
	// 19, §6.2 "Non-NSS roots") and AmazonLinux's Thawte Premium.
	nonNSS := []struct {
		name  string
		count int
	}{
		{"CAcert", 3}, {"SPI", 3}, {"Debian Infra", 2}, {"TP Internet", 9},
		{"DCSSI", 1}, {"Brazil NIIT", 1}, {"Thawte Premium Server", 1},
	}
	for _, nn := range nonNSS {
		specs = append(specs, universeSpec{
			namePrefix: "NonNSS " + nn.name, count: nn.count, category: CatNonNSS,
			key: certgen.RSA2048, sig: certgen.SHA1WithRSA,
			notBefore: date(2003, 1, 1), notAfter: date(2033, 1, 1), joinYear: 2004,
		})
	}

	// ValiCert: the deprecated root NodeJS re-added for OpenSSL chain
	// building (§6.2 "Customized trust").
	specs = append(specs, universeSpec{
		namePrefix: "ValiCert Legacy", count: 1, category: CatNonNSS,
		key: certgen.RSA1024, sig: certgen.SHA1WithRSA,
		notBefore: date(1999, 6, 1), notAfter: date(2029, 6, 1), joinYear: 1999,
	})

	// AddTrust: expires 2020-05-30; Alpine removed it manually (§6.2).
	specs = append(specs, universeSpec{
		namePrefix: "AddTrust External", count: 1, category: CatExpiring,
		key: certgen.RSA2048, sig: certgen.SHA256WithRSA,
		notBefore: date(2000, 5, 30), notAfter: date(2020, 5, 30), joinYear: 2000,
	})

	// NOTE: the specs below extend the universe for the non-TLS ecosystems
	// (CT logs, TPM manifests). They MUST stay at the end: key indices are
	// assigned in spec order, so appending keeps every pre-existing CA's
	// certificate — and with it the fingerprints every base-corpus artifact
	// and golden value depends on — byte-identical.

	// CT submission-only roots: per-operator cohorts of roots accepted by
	// that operator's logs for submission chains but never trusted by any
	// browser program — the log-exclusive tail the CT root-landscape
	// analysis reports.
	for _, op := range CTOperators {
		specs = append(specs, universeSpec{
			namePrefix: "CT Submission " + op, count: 20, category: CatCTOnly,
			key: certgen.RSA2048, sig: certgen.SHA256WithRSA,
			notBefore: date(2014, 1, 1), notAfter: date(2039, 1, 1),
			program: op, joinYear: 2016,
		})
	}

	// TPM vendor endorsement-key roots: anchors that exist entirely outside
	// the TLS ecosystem, published only through vendor manifests.
	specs = append(specs, universeSpec{
		namePrefix: "TPM Vendor EK", count: 12, category: CatTPMOnly,
		key: certgen.ECDSA256, sig: certgen.ECDSAWithSHA256,
		notBefore: date(2013, 1, 1), notAfter: date(2043, 1, 1), joinYear: 2015,
	})

	// Plan every CA serially — key indices follow spec order — then mint
	// the roots in parallel. Minting is a pure function of the RootSpec
	// and its pooled key (RSA PKCS#1 v1.5 and the package's ECDSA signing
	// are both deterministic), so the DER does not depend on scheduling.
	var rootSpecs []certgen.RootSpec
	for _, spec := range specs {
		for i := 0; i < spec.count; i++ {
			name := spec.namePrefix
			if spec.count > 1 {
				name = fmt.Sprintf("%s Root %d", spec.namePrefix, i+1)
			}
			rootSpecs = append(rootSpecs, certgen.RootSpec{
				Name:      name,
				Org:       name + " Org",
				Country:   "US",
				Key:       spec.key,
				Sig:       spec.sig,
				NotBefore: spec.notBefore,
				NotAfter:  spec.notAfter,
				KeyIndex:  len(rootSpecs),
			})
			u.CAs = append(u.CAs, &CA{
				Name:     name,
				Category: spec.category,
				Incident: spec.incident,
				Program:  spec.program,
				JoinYear: spec.joinYear,
			})
		}
	}
	roots, err := mintAll(u.pool, rootSpecs)
	if err != nil {
		return nil, err
	}
	for i, ca := range u.CAs {
		ca.Root = roots[i]
		ca.fp = certutil.SHA256Fingerprint(roots[i].DER)
		u.byName[ca.Name] = ca
	}
	return u, nil
}

// mintAll mints one root per spec on GOMAXPROCS workers, each pulling the
// next index off an atomic counter and writing its own slot. The first
// failure in spec order is reported, so errors are as deterministic as the
// output.
func mintAll(pool *certgen.KeyPool, specs []certgen.RootSpec) ([]*certgen.Root, error) {
	roots := make([]*certgen.Root, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(specs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(specs); i = int(next.Add(1) - 1) {
				roots[i], errs[i] = certgen.NewRoot(pool, specs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("synth: mint %q: %w", specs[i].Name, err)
		}
	}
	return roots, nil
}
