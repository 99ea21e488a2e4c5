package trustbench

// The fixture: certificate chains minted under the corpus's CAs, the
// seeded pool of pre-rendered requests a run cycles through, and the
// oracle every response is checked against. Expected verdicts are
// computed in process with verify.New(snapshot).Verify on the same
// database trustd serves; reads and what-ifs are checked against the
// database and simulate engine of the generation that answered.

import (
	"bytes"
	"crypto/x509"
	"encoding/base64"
	"encoding/json"
	"encoding/pem"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/certgen"
	"repro/internal/certutil"
	"repro/internal/simulate"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/useragent"
	"repro/internal/verify"
)

// CorpusSeed is trustd's default ecosystem seed. Every workload serves
// this corpus; the benchmark's own -seed only drives request draws.
const CorpusSeed = "tracing-your-roots"

// Class is one request class of a workload mix.
type Class string

// Request classes.
const (
	ClassRead     Class = "read"
	ClassVerify   Class = "verify"
	ClassBatch    Class = "batch"
	ClassSimulate Class = "simulate"
)

var classOrder = []Class{ClassRead, ClassVerify, ClassBatch, ClassSimulate}

// Chain is one leaf certificate issued directly by a corpus root (or, for
// the no-anchor class, by a root no TLS store holds).
type Chain struct {
	PEM  string
	DER  []byte
	Leaf *x509.Certificate
}

// Leaf validity windows per designed class. The partial-distrust leaves
// are issued after the Symantec cohort's NSS cutoff (2019-09-01).
var chainClasses = []struct {
	category  synth.Category
	notBefore time.Time
	notAfter  time.Time
}{
	{synth.CatMainstream, day(2018, 1, 1), day(2022, 1, 1)},   // ok
	{synth.CatSymantec, day(2019, 11, 1), day(2022, 1, 1)},    // partial distrust
	{synth.CatCTOnly, day(2018, 1, 1), day(2022, 1, 1)},       // no anchor
	{synth.CatMainstream, day(2016, 1, 1), day(2018, 12, 31)}, // expired
}

func day(y, m, d int) time.Time { return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC) }

// chainClassOf spreads n chains 70/10/10/10 over ok, partial-distrust,
// no-anchor and expired.
func chainClassOf(i int) int {
	switch i % 10 {
	case 7:
		return 1
	case 8:
		return 2
	case 9:
		return 3
	}
	return 0
}

// MintChains issues n leaves under the universe's CAs. The chains are
// fixed for the corpus; only which of them a request uses is drawn.
func MintChains(u *synth.Universe, n int) ([]*Chain, error) {
	keys := certgen.NewKeyPool("trustbench/leaves")
	out := make([]*Chain, n)
	for i := range out {
		cls := chainClasses[chainClassOf(i)]
		cas := u.ByCategory(cls.category)
		if len(cas) == 0 {
			return nil, fmt.Errorf("corpus has no %s CAs", cls.category)
		}
		ca := cas[(i/10)%len(cas)]
		cn := fmt.Sprintf("c%03d.trustbench.test", i)
		der, _, err := ca.Root.IssueLeaf(keys, certgen.LeafSpec{
			CommonName: cn,
			DNSNames:   []string{cn},
			NotBefore:  cls.notBefore,
			NotAfter:   cls.notAfter,
		})
		if err != nil {
			return nil, fmt.Errorf("mint chain %d: %w", i, err)
		}
		leaf, err := x509.ParseCertificate(der)
		if err != nil {
			return nil, fmt.Errorf("parse chain %d: %w", i, err)
		}
		out[i] = &Chain{
			PEM:  string(pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})),
			DER:  der,
			Leaf: leaf,
		}
	}
	return out, nil
}

// generation is one database a trustd generation serves, with what the
// oracle derives from it.
type generation struct {
	db  *store.Database
	sim map[string][]byte // simulate body → expected response bytes
}

// Request is one pre-rendered request plus the oracle for its response.
type Request struct {
	Class  Class
	Method string
	Path   string
	Body   []byte
	Ctype  string
	// Ops is the work a correct response completes: one request, or one
	// verdict per (line, store) for a batch.
	Ops int

	validate func(g *generation, body []byte) error

	// passed remembers (generation, body hash) pairs already validated, so
	// a repeated response costs one hash instead of a decode.
	mu     sync.Mutex
	passed []passKey
}

type passKey struct {
	gen  int
	hash uint64
}

// maxPassed bounds how many validated variants one request remembers
// (cached/uncached verdict flags, two reload generations).
const maxPassed = 8

var bodySeed = maphash.MakeSeed()

// Fixture is a workload's request pool and oracle.
type Fixture struct {
	Workload *Workload
	Pool     []*Request
	// Outcomes counts expected verdict outcomes over the pool.
	Outcomes map[string]int
	// Chains and Verifies describe the pool's verify work, for the
	// in-process layer timings.
	Chains   []*Chain
	Verifies []VerifyItem
	UAs      []string
	gens     []*generation
	// expect holds the oracle's verdict for every distinct verdict key the
	// pool asks for; requests index into it.
	expect []wireVerdict
}

// VerifyItem is one (chain, snapshot, instant) verification the pool asks
// trustd to perform.
type VerifyItem struct {
	Chain *Chain
	Snap  *store.Snapshot
	At    time.Time
}

// genFor maps a response's X-Rootpack-Epoch to the generation that must
// have produced it. A reload trustd starts at epoch 1 on the base tree and
// every tree change swaps exactly once, alternating add and remove, so odd
// epochs serve the base and even epochs the copy.
func (f *Fixture) genFor(epoch uint64) (int, *generation) {
	if len(f.gens) == 1 {
		return 0, f.gens[0]
	}
	i := int((epoch + 1) % 2)
	return i, f.gens[i]
}

// Check validates one 200 response body served at epoch.
func (f *Fixture) Check(r *Request, epoch uint64, body []byte) error {
	gi, g := f.genFor(epoch)
	k := passKey{gen: gi, hash: maphash.Bytes(bodySeed, body)}
	r.mu.Lock()
	for _, p := range r.passed {
		if p == k {
			r.mu.Unlock()
			return nil
		}
	}
	r.mu.Unlock()
	if err := r.validate(g, body); err != nil {
		return fmt.Errorf("%s %s (epoch %d): %w", r.Method, r.Path, epoch, err)
	}
	r.mu.Lock()
	if len(r.passed) < maxPassed {
		r.passed = append(r.passed, k)
	}
	r.mu.Unlock()
	return nil
}

// NSSCopyVersion names the snapshot the reload workload adds: a copy of
// NSS's latest release, dated by its directory name one day after it.
const NSSCopyVersion = "2021-06-01"

// WithNSSCopy returns db plus the reload workload's NSS copy, the second
// generation a reload trustd alternates to.
func WithNSSCopy(db *store.Database) (*store.Database, error) {
	out := store.NewDatabase()
	for _, s := range db.AllSnapshots() {
		if err := out.AddSnapshot(s.ShareClone()); err != nil {
			return nil, err
		}
	}
	latest := db.History("NSS").Latest()
	date, err := time.Parse("2006-01-02", NSSCopyVersion)
	if err != nil {
		return nil, err
	}
	if !date.After(latest.Date) {
		return nil, fmt.Errorf("NSS copy %s does not follow NSS latest %s", NSSCopyVersion, latest.Date.Format("2006-01-02"))
	}
	cp := store.NewSnapshot("NSS", NSSCopyVersion, date)
	cp.Kind = latest.Kind
	for _, e := range latest.Entries() {
		cp.Add(e)
	}
	if err := out.AddSnapshot(cp); err != nil {
		return nil, err
	}
	return out, nil
}

// NewFixture draws a pool of size requests from seed and computes the
// oracle. db is the database trustd serves at start; u supplies the CA
// keys that issue the chains.
func NewFixture(w *Workload, size int, seed uint64, db *store.Database, u *synth.Universe) (*Fixture, error) {
	chains, err := MintChains(u, w.Chains)
	if err != nil {
		return nil, err
	}
	f := &Fixture{
		Workload: w,
		Chains:   chains,
		UAs:      useragent.Generate(useragent.PaperSample()),
		gens:     []*generation{{db: db}},
		Outcomes: map[string]int{},
	}
	if w.Reload {
		cp, err := WithNSSCopy(db)
		if err != nil {
			return nil, err
		}
		f.gens = append(f.gens, &generation{db: cp})
	}

	rng := rand.New(rand.NewPCG(seed, seed^0x7472757374626e68))
	reads := readTargets(db)
	sims, err := f.simulateTargets(db)
	if err != nil {
		return nil, err
	}
	var table []Class
	for _, c := range classOrder {
		for k := 0; k < w.Mix[c]; k++ {
			table = append(table, c)
		}
	}
	b := &poolBuilder{
		f: f, rng: rng, keys: map[verdictKey]int{},
		chains: newDeck(rng, len(chains)),
		uas:    newDeck(rng, len(f.UAs)),
	}
	classes, readDeck, simDeck := newDeck(rng, len(table)), newDeck(rng, len(reads)), newDeck(rng, len(sims))
	for len(f.Pool) < size {
		var req *Request
		switch table[classes.deal()] {
		case ClassRead:
			req = reads[readDeck.deal()]()
		case ClassVerify:
			req, err = b.verify()
		case ClassBatch:
			req, err = b.batch()
		case ClassSimulate:
			req = sims[simDeck.deal()]()
		}
		if err != nil {
			return nil, err
		}
		f.Pool = append(f.Pool, req)
	}
	b.computeOutcomes()
	return f, nil
}

// deck deals the indices 0..n-1 in a seeded order, reshuffled after every
// full pass. Drawing classes, chains, user agents and targets from decks
// gives every seed the same proportions, so the seed moves only order and
// pairing, not the amount of each kind of work.
type deck struct {
	rng   *rand.Rand
	order []int
	next  int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, order: make([]int, n), next: n}
	for i := range d.order {
		d.order[i] = i
	}
	return d
}

func (d *deck) deal() int {
	if d.next == len(d.order) {
		d.rng.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
		d.next = 0
	}
	d.next++
	return d.order[d.next-1]
}

// verdictKey identifies one expected verdict; at is zero when the request
// names no instant (each snapshot's own date applies).
type verdictKey struct {
	chain int
	snap  *store.Snapshot
	at    time.Time
}

type poolBuilder struct {
	f           *Fixture
	rng         *rand.Rand
	chains, uas *deck
	keys        map[verdictKey]int // → index into order and Fixture.expect
	order       []verdictKey
}

// want resolves a verify-shaped request to the verdict keys the server
// must answer with, in the server's order: named stores first, then the
// UA's store, deduplicated by snapshot.
func (b *poolBuilder) want(chain int, ua string, stores []string, at time.Time) ([]int, error) {
	refs := append([]string(nil), stores...)
	if ua != "" {
		if m := useragent.MapToProvider(useragent.Parse(ua)); m.Traceable {
			refs = append(refs, string(m.Provider))
		}
	}
	db := b.f.gens[0].db
	if len(refs) == 0 {
		refs = db.Providers()
	}
	var out []int
	seen := map[*store.Snapshot]bool{}
	for _, ref := range refs {
		h := db.History(ref)
		if h == nil {
			return nil, fmt.Errorf("fixture names unknown provider %q", ref)
		}
		snap := h.Latest()
		if !at.IsZero() {
			snap = h.At(at)
		}
		if snap == nil {
			return nil, fmt.Errorf("provider %s has no snapshot at %s", ref, at)
		}
		if seen[snap] {
			continue
		}
		seen[snap] = true
		k := verdictKey{chain: chain, snap: snap, at: at}
		i, ok := b.keys[k]
		if !ok {
			i = len(b.order)
			b.keys[k] = i
			b.order = append(b.order, k)
		}
		out = append(out, i)
	}
	return out, nil
}

// instant draws a verify instant: pinned, or uniform over coldWindow.
func (b *poolBuilder) instant() time.Time {
	if !b.f.Workload.ColdAt {
		return pinnedAt
	}
	span := coldWindow[1].Unix() - coldWindow[0].Unix()
	return time.Unix(coldWindow[0].Unix()+b.rng.Int64N(span), 0).UTC()
}

type verifyBody struct {
	ChainPEM  string   `json:"chain_pem,omitempty"`
	ChainDER  []string `json:"chain_der,omitempty"`
	UserAgent string   `json:"user_agent,omitempty"`
	Stores    []string `json:"stores,omitempty"`
	At        string   `json:"at,omitempty"`
}

// verifyStores are the explicit stores every routed verify names, so
// untraceable user agents still get verdicts.
var verifyStores = []string{"NSS", "Debian"}

func (b *poolBuilder) verify() (*Request, error) {
	chain := b.chains.deal()
	ua := b.f.UAs[b.uas.deal()]
	at := b.instant()
	idx, err := b.want(chain, ua, verifyStores, at)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(verifyBody{
		ChainPEM:  b.f.Chains[chain].PEM,
		UserAgent: ua,
		Stores:    verifyStores,
		At:        at.Format(time.RFC3339),
	})
	if err != nil {
		return nil, err
	}
	return &Request{
		Class: ClassVerify, Method: http.MethodPost, Path: "/v1/verify",
		Body: body, Ctype: "application/json", Ops: 1,
		validate: func(_ *generation, body []byte) error {
			var resp struct {
				Verdicts []wireVerdict `json:"verdicts"`
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			return b.f.matchVerdicts(resp.Verdicts, idx)
		},
	}, nil
}

type wireVerdict struct {
	Store   string `json:"store"`
	Outcome string `json:"outcome"`
}

func (f *Fixture) matchVerdicts(got []wireVerdict, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d verdicts, oracle expects %d", len(got), len(want))
	}
	for i, wi := range want {
		if got[i] != f.expect[wi] {
			return fmt.Errorf("verdict %d is %s=%s, oracle says %s=%s", i, got[i].Store, got[i].Outcome, f.expect[wi].Store, f.expect[wi].Outcome)
		}
	}
	return nil
}

func (b *poolBuilder) batch() (*Request, error) {
	w := b.f.Workload
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	want := make([][]int, w.BatchLines)
	ops := 0
	for line := range want {
		chain := b.chains.deal()
		v := verifyBody{ChainDER: []string{base64.StdEncoding.EncodeToString(b.f.Chains[chain].DER)}}
		var at time.Time
		if !w.BatchFanout {
			v.UserAgent = b.f.UAs[b.uas.deal()]
			v.Stores = verifyStores
			at = b.instant()
			v.At = at.Format(time.RFC3339)
		}
		idx, err := b.want(chain, v.UserAgent, v.Stores, at)
		if err != nil {
			return nil, err
		}
		want[line] = idx
		ops += len(idx)
		if err := enc.Encode(v); err != nil {
			return nil, err
		}
	}
	return &Request{
		Class: ClassBatch, Method: http.MethodPost, Path: "/v1/verify/batch",
		Body: body.Bytes(), Ctype: "application/x-ndjson", Ops: ops,
		validate: func(_ *generation, body []byte) error {
			lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
			if len(lines) != len(want) {
				return fmt.Errorf("%d response lines for %d request lines", len(lines), len(want))
			}
			for i, raw := range lines {
				var line struct {
					Seq      int           `json:"seq"`
					Error    string        `json:"error"`
					Verdicts []wireVerdict `json:"verdicts"`
				}
				if err := json.Unmarshal(raw, &line); err != nil {
					return fmt.Errorf("line %d: %w", i, err)
				}
				if line.Seq != i || line.Error != "" {
					return fmt.Errorf("line %d: seq %d error %q", i, line.Seq, line.Error)
				}
				if err := b.f.matchVerdicts(line.Verdicts, want[i]); err != nil {
					return fmt.Errorf("line %d: %w", i, err)
				}
			}
			return nil
		},
	}, nil
}

// computeOutcomes runs the oracle over every distinct verdict the pool
// expects, one verifier per snapshot, on all CPUs.
func (b *poolBuilder) computeOutcomes() {
	outcomes := make([]string, len(b.order))
	verifiers := map[*store.Snapshot]*verify.Verifier{}
	for _, k := range b.order {
		if verifiers[k.snap] == nil {
			verifiers[k.snap] = verify.New(k.snap)
		}
	}
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(b.order); i += workers {
				k := b.order[i]
				res := verifiers[k.snap].Verify(verify.Request{
					Leaf:    b.f.Chains[k.chain].Leaf,
					Purpose: store.ServerAuth,
					At:      k.at,
				})
				outcomes[i] = res.Outcome.String()
			}
		}(w)
	}
	wg.Wait()
	b.f.expect = make([]wireVerdict, len(b.order))
	for i, k := range b.order {
		b.f.expect[i] = wireVerdict{Store: k.snap.Key(), Outcome: outcomes[i]}
		b.f.Outcomes[outcomes[i]]++
		b.f.Verifies = append(b.f.Verifies, VerifyItem{Chain: b.f.Chains[k.chain], Snap: k.snap, At: k.at})
	}
}

// readTargets lists the GET paths reads draw from: the provider list,
// each provider's history, sixteen roots, and each provider diffed
// against NSS. Each entry builds a fresh Request (own validation memo).
func readTargets(db *store.Database) []func() *Request {
	get := func(path string, validate func(g *generation, body []byte) error) func() *Request {
		return func() *Request {
			return &Request{Class: ClassRead, Method: http.MethodGet, Path: path, Ops: 1, validate: validate}
		}
	}
	out := []func() *Request{get("/v1/providers", validateProviders)}
	for _, p := range db.Providers() {
		p := p
		out = append(out, get("/v1/providers/"+p+"/snapshots", func(g *generation, body []byte) error {
			return validateSnapshots(g, p, body)
		}))
	}
	entries := db.History("NSS").Latest().Entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Fingerprint.String() < entries[j].Fingerprint.String() })
	for _, e := range entries[:min(16, len(entries))] {
		fp := e.Fingerprint.String()
		out = append(out, get("/v1/roots/"+fp, func(g *generation, body []byte) error {
			return validateRoot(g, fp, body)
		}))
	}
	for _, p := range db.Providers() {
		if p == "NSS" {
			continue
		}
		p := p
		out = append(out, get("/v1/diff?a="+p+"&b=NSS", func(g *generation, body []byte) error {
			return validateDiff(g, p, "NSS", body)
		}))
	}
	return out
}

func validateProviders(g *generation, body []byte) error {
	var resp struct {
		Providers []struct {
			Name          string `json:"name"`
			Snapshots     int    `json:"snapshots"`
			LatestVersion string `json:"latest_version"`
		} `json:"providers"`
		TotalSnapshots int `json:"total_snapshots"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	names := g.db.Providers()
	if len(resp.Providers) != len(names) || resp.TotalSnapshots != g.db.TotalSnapshots() {
		return fmt.Errorf("%d providers / %d snapshots, oracle expects %d / %d",
			len(resp.Providers), resp.TotalSnapshots, len(names), g.db.TotalSnapshots())
	}
	for i, p := range resp.Providers {
		h := g.db.History(names[i])
		if p.Name != names[i] || p.Snapshots != h.Len() || p.LatestVersion != h.Latest().Version {
			return fmt.Errorf("provider row %d is %s/%d/%s, oracle expects %s/%d/%s",
				i, p.Name, p.Snapshots, p.LatestVersion, names[i], h.Len(), h.Latest().Version)
		}
	}
	return nil
}

func validateSnapshots(g *generation, provider string, body []byte) error {
	var resp struct {
		Provider  string `json:"provider"`
		Snapshots []struct {
			Version string `json:"version"`
			Roots   int    `json:"roots"`
		} `json:"snapshots"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	snaps := g.db.History(provider).Snapshots()
	if resp.Provider != provider || len(resp.Snapshots) != len(snaps) {
		return fmt.Errorf("%s with %d snapshots, oracle expects %s with %d", resp.Provider, len(resp.Snapshots), provider, len(snaps))
	}
	for i, s := range snaps {
		if got := resp.Snapshots[i]; got.Version != s.Version || got.Roots != s.Len() {
			return fmt.Errorf("snapshot %d is %s/%d roots, oracle expects %s/%d", i, got.Version, got.Roots, s.Version, s.Len())
		}
	}
	return nil
}

func validateRoot(g *generation, fp string, body []byte) error {
	var resp struct {
		Fingerprint string            `json:"fingerprint"`
		Presences   []json.RawMessage `json:"presences"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	want := 0
	for _, s := range g.db.AllSnapshots() {
		if _, ok := s.EntryByFingerprint(fp); ok {
			want++
		}
	}
	if resp.Fingerprint != fp || len(resp.Presences) != want {
		return fmt.Errorf("root %s in %d snapshots, oracle expects %s in %d", resp.Fingerprint, len(resp.Presences), fp, want)
	}
	return nil
}

func validateDiff(g *generation, a, b string, body []byte) error {
	var resp struct {
		A            string            `json:"a"`
		B            string            `json:"b"`
		Added        []json.RawMessage `json:"added"`
		Removed      []json.RawMessage `json:"removed"`
		TrustChanges []json.RawMessage `json:"trust_changes"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	sa, sb := g.db.History(a).Latest(), g.db.History(b).Latest()
	d := store.DiffSnapshots(sa, sb)
	if resp.A != sa.Key() || resp.B != sb.Key() || len(resp.Added) != len(d.Added) ||
		len(resp.Removed) != len(d.Removed) || len(resp.TrustChanges) != len(d.TrustChanges) {
		return fmt.Errorf("diff %s→%s +%d -%d ~%d, oracle expects %s→%s +%d -%d ~%d",
			resp.A, resp.B, len(resp.Added), len(resp.Removed), len(resp.TrustChanges),
			sa.Key(), sb.Key(), len(d.Added), len(d.Removed), len(d.TrustChanges))
	}
	return nil
}

// simulateTargets lists the what-if bodies simulate traffic draws from —
// removing one of eight roots NSS trusts — with each generation's
// expected response: the engine's result encoded as trustd encodes it.
func (f *Fixture) simulateTargets(db *store.Database) ([]func() *Request, error) {
	fps := simulateRoots(db)
	if len(fps) < 8 {
		return nil, errors.New("NSS trusts fewer than 8 roots")
	}
	for _, g := range f.gens {
		g.sim = map[string][]byte{}
		eng := simulate.New(g.db, simulate.Options{})
		for _, fp := range fps {
			parsed, err := certutil.ParseFingerprint(fp)
			if err != nil {
				return nil, err
			}
			res, err := eng.Simulate(simulate.Event{Kind: simulate.KindRemoval, Fingerprints: []certutil.Fingerprint{parsed}})
			if err != nil {
				return nil, fmt.Errorf("oracle simulate %s: %w", fp, err)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			g.sim[fp] = append(raw, '\n')
		}
	}
	var out []func() *Request
	for _, fp := range fps {
		fp := fp
		body, err := json.Marshal(map[string]any{"kind": "removal", "fingerprints": []string{fp}})
		if err != nil {
			return nil, err
		}
		out = append(out, func() *Request {
			return &Request{
				Class: ClassSimulate, Method: http.MethodPost, Path: "/v1/simulate",
				Body: body, Ctype: "application/json", Ops: 1,
				validate: func(g *generation, got []byte) error {
					if !bytes.Equal(got, g.sim[fp]) {
						return fmt.Errorf("what-if for %s differs from the engine's result", fp[:12])
					}
					return nil
				},
			}
		})
	}
	return out, nil
}

// simulateRoots are the roots simulate traffic removes: the first eight,
// by fingerprint, that NSS's latest snapshot trusts.
func simulateRoots(db *store.Database) []string {
	var fps []string
	for _, e := range db.History("NSS").Latest().Entries() {
		if e.TrustedFor(store.ServerAuth) {
			fps = append(fps, e.Fingerprint.String())
		}
	}
	sort.Strings(fps)
	return fps[:min(8, len(fps))]
}

// OutcomeShares renders the expected outcome mix, e.g. "ok 71%, expired 10%".
func (f *Fixture) OutcomeShares() string {
	total := 0
	var names []string
	for name, n := range f.Outcomes {
		total += n
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s %.0f%%", name, 100*float64(f.Outcomes[name])/float64(total))
	}
	return strings.Join(parts, ", ")
}
