package service_test

// The root index is built per root on first lookup. These tests pin that
// the lazy build answers exactly what one eager walk over every snapshot
// answered, that concurrent first reads of a generation agree, and what
// the default corpus costs to hold in memory once nothing is eager.

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/certutil"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/synth"
)

// eagerIndex is the oracle: the whole-database walk the index used to run
// at every install, one presence per (snapshot, root) in AllSnapshots
// order, keyed by hex fingerprint.
func eagerIndex(db *store.Database) map[string]*service.RootInfo {
	out := map[string]*service.RootInfo{}
	for _, snap := range db.AllSnapshots() {
		for _, e := range snap.Entries() {
			fp := e.Fingerprint.String()
			info := out[fp]
			if info == nil {
				info = &service.RootInfo{
					Fingerprint: fp,
					Label:       e.Label,
					Subject:     certutil.DisplayName(e.Cert),
					NotBefore:   e.Cert.NotBefore,
					NotAfter:    e.Cert.NotAfter,
				}
				out[fp] = info
			}
			p := service.Presence{Provider: snap.Provider, Version: snap.Version, Date: snap.Date}
			for _, purpose := range store.AllPurposes {
				if l := e.TrustFor(purpose); l != store.Unspecified {
					if p.Trust == nil {
						p.Trust = map[string]string{}
					}
					p.Trust[purpose.String()] = l.String()
				}
				if cutoff, ok := e.DistrustAfterFor(purpose); ok {
					if p.DistrustAfter == nil {
						p.DistrustAfter = map[string]time.Time{}
					}
					p.DistrustAfter[purpose.String()] = cutoff
				}
			}
			info.Presences = append(info.Presences, p)
			if n := len(info.Providers); n == 0 || info.Providers[n-1] != snap.Provider {
				info.Providers = append(info.Providers, snap.Provider)
			}
		}
	}
	return out
}

// TestLazyIndexMatchesEager: over the default corpus, every root's lazily
// built RootInfo equals the eager walk's, and Size counts the same roots.
func TestLazyIndexMatchesEager(t *testing.T) {
	eco, err := synth.Cached("tracing-your-roots")
	if err != nil {
		t.Fatal(err)
	}
	want := eagerIndex(eco.DB)
	if len(want) != 401 {
		t.Fatalf("default corpus holds %d roots, want 401", len(want))
	}
	ix := service.BuildIndex(eco.DB)
	if got := ix.Size(); got != len(want) {
		t.Fatalf("Size() = %d, eager walk found %d roots", got, len(want))
	}
	for fp, info := range want {
		got, ok := ix.Lookup(fp)
		if !ok {
			t.Fatalf("root %s not indexed", fp)
		}
		if !reflect.DeepEqual(got, info) {
			t.Fatalf("root %s: lazy %+v\neager %+v", fp, got, info)
		}
	}
	if _, ok := ix.Lookup(fmt.Sprintf("%064x", 0)); ok {
		t.Fatal("unknown fingerprint resolved")
	}
}

// TestIndexConcurrentFirstReads: after every swap, 8 readers make the
// generation's first request for the same root at once (through the
// handler and through Index().Lookup) while a swapper installs the next
// generation. Each body must be the one of the generation its epoch
// names; under -race this covers the lazy fingerprint set and the
// per-root build.
func TestIndexConcurrentFirstReads(t *testing.T) {
	dbA := swapDB(t, "2020-01-01", 0, 1, 2)
	dbB := grownDB(t, "2020-01-01")
	fp := fingerprintOf(t, dbA, 0)
	path := "/v1/roots/" + fp
	// Epoch 1 serves dbA and generations alternate: even epochs are dbB.
	byParity := [2][]byte{refBodies(t, dbB, fp)[path], refBodies(t, dbA, fp)[path]}
	presences := [2]int{len(eagerIndex(dbB)[fp].Presences), len(eagerIndex(dbA)[fp].Presences)}

	srv := service.New(dbA, service.Config{})
	const rounds, readers = 50, 8
	for round := 0; round < rounds; round++ {
		next := dbB
		if round%2 == 1 {
			next = dbA
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if g%2 == 1 {
					ix := srv.Index()
					info, ok := ix.Lookup(fp)
					if !ok || (len(info.Presences) != presences[0] && len(info.Presences) != presences[1]) {
						t.Errorf("round %d: Index().Lookup = %v, %v", round, info, ok)
					}
					return
				}
				body, epoch, err := read(srv, path)
				if err != nil {
					t.Error(err)
					return
				}
				if want := byParity[epoch%2]; !bytes.Equal(body, want) {
					t.Errorf("round %d: GET %s at epoch %d:\n got %s\nwant %s", round, path, epoch, body, want)
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			srv.Swap(next)
		}()
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}

// TestCorpusHeapBudget bounds the live heap of the default corpus (820
// snapshots, 161,875 entries over 401 roots) plus a Server over it that
// has answered a health check: entries interned by value (730 structs
// shared by every snapshot that holds them), snapshots without
// fingerprint maps and an index built per root keep it near 5 MB. A
// struct per (snapshot, root) held 19.4 MB; per-entry trust maps,
// per-snapshot maps and an eager index held 56 MB.
func TestCorpusHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates every allocation")
	}
	if testing.Short() {
		t.Skip("corpus generation skipped in -short mode")
	}
	const budgetMB = 8
	before := liveHeap()
	eco, err := synth.Generate("tracing-your-roots")
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(eco.DB, service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if n := srv.Index().Size(); n != 401 {
		t.Fatalf("indexed %d roots, want 401", n)
	}
	mb := float64(liveHeap()-before) / (1 << 20)
	runtime.KeepAlive(eco)
	runtime.KeepAlive(srv)
	t.Logf("default corpus + server: %.1f MB live heap (budget %d MB)", mb, budgetMB)
	if mb > budgetMB {
		t.Fatalf("default corpus + server hold %.1f MB of live heap, budget %d MB", mb, budgetMB)
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
