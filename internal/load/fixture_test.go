package load_test

// Hermetic fixture for the package's end-to-end test: two serving
// generations that disagree about exactly one store.
//
// Every UA-traceable provider (NSS, Microsoft, Apple, Android, NodeJS)
// trusts root 0 in BOTH generations, so weighted-UA verify traffic
// succeeds no matter which generation answers. The Debian derivative is
// the generation marker: generation A omits root 0 from Debian (the
// chain fails there), generation B includes it (the chain verifies).
// checkVerify cross-references each response's X-Rootpack-Hash against
// the Debian outcome — a response claiming generation B but carrying
// generation A's verdict (or vice versa) is a torn read across the
// atomic swap, exactly what the rolling-reload scenario must prove
// cannot happen.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"encoding/pem"
	"fmt"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/certgen"
	"repro/internal/certutil"
	"repro/internal/load"
	"repro/internal/store"
	"repro/internal/testcerts"
	"repro/internal/tracker"
)

// fixture is a ready-to-serve pair of generations plus the Target that
// drives load against them.
type fixture struct {
	GenA  *store.Database // Debian does NOT trust root 0
	GenB  *store.Database // Debian trusts root 0
	HashA string          // bare-hex rootpack hash of GenA (X-Rootpack-Hash form)
	HashB string
	// ChainPEM is a leaf issued by root 0 — verifies against every
	// traceable provider in both generations.
	ChainPEM string
	Target   load.Target
}

// fixtureProviders maps provider name → trusted root indices for
// generation A. Root 0 anchors the test chain.
var fixtureProviders = map[string][]int{
	"NSS":       {0, 1, 2},
	"Microsoft": {0, 1},
	"Apple":     {0, 1},
	"Android":   {0, 2},
	"NodeJS":    {0, 2},
	"Debian":    {1, 2}, // generation B adds 0
}

// newFixture builds both generations, the chain, and a Target wired
// with a mixed-generation checker.
func newFixture() (*fixture, error) {
	roots := testcerts.Roots(3)
	snapDate := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

	build := func(debianExtra bool) (*store.Database, error) {
		db := store.NewDatabase()
		for provider, idx := range fixtureProviders {
			snap := store.NewSnapshot(provider, snapDate.Format("2006-01-02"), snapDate)
			trusted := idx
			if provider == "Debian" && debianExtra {
				trusted = append([]int{0}, idx...)
			}
			for _, i := range trusted {
				e, err := store.NewTrustedEntry(roots[i].DER, store.ServerAuth)
				if err != nil {
					return nil, err
				}
				snap.Add(e)
			}
			if err := db.AddSnapshot(snap); err != nil {
				return nil, err
			}
		}
		return db, nil
	}
	genA, err := build(false)
	if err != nil {
		return nil, fmt.Errorf("load fixture generation A: %w", err)
	}
	genB, err := build(true)
	if err != nil {
		return nil, fmt.Errorf("load fixture generation B: %w", err)
	}
	hashA, err := archive.HashDatabase(genA)
	if err != nil {
		return nil, err
	}
	hashB, err := archive.HashDatabase(genB)
	if err != nil {
		return nil, err
	}

	leafDER, _, err := roots[0].IssueLeaf(testcerts.Pool(), certgen.LeafSpec{
		CommonName: "loadgen.example.test",
		DNSNames:   []string{"loadgen.example.test"},
		NotBefore:  time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:   time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		return nil, fmt.Errorf("issue loadgen leaf: %w", err)
	}
	var buf bytes.Buffer
	if err := pem.Encode(&buf, &pem.Block{Type: "CERTIFICATE", Bytes: leafDER}); err != nil {
		return nil, err
	}

	f := &fixture{
		GenA:     genA,
		GenB:     genB,
		HashA:    hex.EncodeToString(hashA[:]),
		HashB:    hex.EncodeToString(hashB[:]),
		ChainPEM: buf.String(),
	}

	simBody, err := json.Marshal(map[string]any{
		"kind":         "removal",
		"fingerprints": []string{certutil.SHA256Fingerprint(roots[1].DER).String()},
	})
	if err != nil {
		return nil, err
	}
	f.Target = load.Target{
		ReadPaths: []string{
			"/v1/providers",
			"/v1/providers/NSS/snapshots",
			"/v1/roots/" + certutil.SHA256Fingerprint(roots[0].DER).String(),
			"/v1/diff?a=NSS&b=Debian",
		},
		ChainPEM:     f.ChainPEM,
		Stores:       []string{"NSS", "Debian"},
		SimulateBody: simBody,
		CheckVerify:  f.checkVerify,
	}
	return f, nil
}

// checkVerify asserts every verdict set is internally consistent with
// the generation that produced it: Debian's outcome flips exactly at
// the A→B swap, every other provider verifies in both.
func (f *fixture) checkVerify(generation string, verdicts []load.Verdict) error {
	var wantDebianOK bool
	switch generation {
	case f.HashA:
		wantDebianOK = false
	case f.HashB:
		wantDebianOK = true
	default:
		return fmt.Errorf("unknown generation %q", generation)
	}
	for _, v := range verdicts {
		name := v.Provider
		if name == "" {
			name = v.Store
		}
		if name == "Debian" {
			if ok := v.Outcome == "ok"; ok != wantDebianOK {
				return fmt.Errorf("generation %.8s served Debian outcome %q, want ok=%v — mixed-generation verdict", generation, v.Outcome, wantDebianOK)
			}
			continue
		}
		if v.Outcome != "ok" {
			return fmt.Errorf("provider %s outcome %q, want ok", name, v.Outcome)
		}
	}
	return nil
}

// stubFeed is a minimal in-memory service.EventFeed so the load run can
// exercise live SSE delivery without the tracker pipeline.
type stubFeed struct {
	mu     sync.Mutex
	events []tracker.Event
	subs   map[int]chan tracker.Event
	nextID int
}

// newStubFeed returns an empty feed.
func newStubFeed() *stubFeed {
	return &stubFeed{subs: map[int]chan tracker.Event{}}
}

// Emit appends an event (assigning the next sequence number) and fans it
// out to every live subscriber, dropping to slow ones like the tracker.
func (f *stubFeed) Emit(ev tracker.Event) {
	f.mu.Lock()
	ev.Seq = uint64(len(f.events) + 1)
	if ev.ObservedAt.IsZero() {
		ev.ObservedAt = time.Now()
	}
	f.events = append(f.events, ev)
	for _, ch := range f.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	f.mu.Unlock()
}

// Replay implements service.EventFeed.
func (f *stubFeed) Replay(filter tracker.Filter) []tracker.Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []tracker.Event
	for _, ev := range f.events {
		if filter.Match(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// Subscribe implements service.EventFeed.
func (f *stubFeed) Subscribe(buffer int) (<-chan tracker.Event, func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := f.nextID
	f.nextID++
	ch := make(chan tracker.Event, buffer)
	f.subs[id] = ch
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			f.mu.Lock()
			delete(f.subs, id)
			close(ch)
			f.mu.Unlock()
		})
	}
}

// LastSeq implements service.EventFeed.
func (f *stubFeed) LastSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return uint64(len(f.events))
}
