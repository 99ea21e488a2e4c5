package service_test

// Read-body coverage: the generation-pure GET responses (/v1/providers,
// snapshot lists, /v1/roots/{fp}) are rendered once per generation and
// served as stored bytes. Every served body must equal what encoding/json
// writes for the response built from the serving database — cold and warm
// — and must follow the database through every swap, also while readers
// race a swap storm.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/testcerts"
)

// The reference wire format of the provider and snapshot lists, declared
// here independently of the server's own types.
type refProviderSummary struct {
	Name          string    `json:"name"`
	Kind          string    `json:"kind"`
	Snapshots     int       `json:"snapshots"`
	First         time.Time `json:"first"`
	Latest        time.Time `json:"latest"`
	LatestVersion string    `json:"latest_version"`
	LatestRoots   int       `json:"latest_roots"`
}

type refProvidersResponse struct {
	Providers      []refProviderSummary `json:"providers"`
	TotalSnapshots int                  `json:"total_snapshots"`
	IndexedRoots   int                  `json:"indexed_roots"`
}

type refSnapshotSummary struct {
	Version    string    `json:"version"`
	Date       time.Time `json:"date"`
	Roots      int       `json:"roots"`
	TrustedTLS int       `json:"trusted_server_auth"`
}

type refSnapshotsResponse struct {
	Provider  string               `json:"provider"`
	Snapshots []refSnapshotSummary `json:"snapshots"`
}

func encodeRef(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func snapshotsPath(provider string) string {
	return "/v1/providers/" + url.PathEscape(provider) + "/snapshots"
}

// refBodies builds db's read responses field by field and encodes each
// with json.Encoder, the way the handlers answered before bodies were
// rendered once: /v1/providers, every provider's snapshot list and the
// roots fps, keyed by request path.
func refBodies(t testing.TB, db *store.Database, fps ...string) map[string][]byte {
	t.Helper()
	ix := service.BuildIndex(db)
	providers := refProvidersResponse{TotalSnapshots: db.TotalSnapshots(), IndexedRoots: ix.Size()}
	out := map[string][]byte{}
	for _, name := range db.Providers() {
		h := db.History(name)
		latest := h.Latest()
		providers.Providers = append(providers.Providers, refProviderSummary{
			Name:          name,
			Kind:          string(latest.Kind.Normalize()),
			Snapshots:     h.Len(),
			First:         h.First().Date,
			Latest:        latest.Date,
			LatestVersion: latest.Version,
			LatestRoots:   latest.Len(),
		})
		snaps := refSnapshotsResponse{Provider: name}
		for _, snap := range h.Snapshots() {
			snaps.Snapshots = append(snaps.Snapshots, refSnapshotSummary{
				Version:    snap.Version,
				Date:       snap.Date,
				Roots:      snap.Len(),
				TrustedTLS: snap.TrustedCount(store.ServerAuth),
			})
		}
		out[snapshotsPath(name)] = encodeRef(t, snaps)
	}
	out["/v1/providers"] = encodeRef(t, providers)
	for _, fp := range fps {
		info, ok := ix.Lookup(fp)
		if !ok {
			t.Fatalf("root %s not indexed", fp)
		}
		out["/v1/roots/"+fp] = encodeRef(t, info)
	}
	return out
}

// read GETs path in process and returns the 200 body and the epoch it
// was served from, checking the explicit Content-Length.
func read(srv *service.Server, path string) ([]byte, uint64, error) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return nil, 0, fmt.Errorf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	body := rec.Body.Bytes()
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		return nil, 0, fmt.Errorf("GET %s: Content-Length %q for a %d-byte body", path, cl, len(body))
	}
	epoch, err := strconv.ParseUint(rec.Header().Get("X-Rootpack-Epoch"), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("GET %s: X-Rootpack-Epoch: %v", path, err)
	}
	return body, epoch, nil
}

func readOK(t testing.TB, srv *service.Server, path string) []byte {
	t.Helper()
	body, _, err := read(srv, path)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestReadBodiesMatchEncoder: over the synthetic corpus, every provider
// list, snapshot list and indexed root is byte-identical to the encoder's
// output, on the first (rendering) and the second (stored) request.
func TestReadBodiesMatchEncoder(t *testing.T) {
	eco, _ := fixture(t)
	var fps []string
	seen := map[string]bool{}
	for _, snap := range eco.DB.AllSnapshots() {
		for _, e := range snap.Entries() {
			if fp := e.Fingerprint.String(); !seen[fp] {
				seen[fp] = true
				fps = append(fps, fp)
			}
		}
	}
	want := refBodies(t, eco.DB, fps...)
	if n, roots := len(want)-1-len(eco.DB.Providers()), service.BuildIndex(eco.DB).Size(); n != roots {
		t.Fatalf("%d roots checked, index holds %d", n, roots)
	}
	srv := service.New(eco.DB, service.Config{}) // fresh, so every body starts cold
	for path, body := range want {
		for _, pass := range []string{"cold", "warm"} {
			if got := readOK(t, srv, path); !bytes.Equal(got, body) {
				t.Fatalf("%s GET %s: %d bytes differ from the encoder's %d", pass, path, len(got), len(body))
			}
		}
	}
}

// grownDB is swapDB(version, 0, 1, 2) plus a later NSS release holding
// roots 0..3: root 0 gains a presence and NSS's snapshot list a row.
func grownDB(t *testing.T, version string) *store.Database {
	t.Helper()
	db := swapDB(t, version, 0, 1, 2)
	snap := store.NewSnapshot("NSS", version+"-next", ts(2020, 6, 1))
	for i := 0; i < 4; i++ {
		e, err := store.NewTrustedEntry(testcerts.Roots(i + 1)[i].DER, store.ServerAuth)
		if err != nil {
			t.Fatal(err)
		}
		snap.Add(e)
	}
	if err := db.AddSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestReadBodiesFollowSwap: bodies warmed on one generation are never
// served by the next; each swap shows the new database's bodies.
func TestReadBodiesFollowSwap(t *testing.T) {
	dbA := swapDB(t, "2020-01-01", 0, 1, 2)
	dbB := grownDB(t, "2020-01-01")
	fp := fingerprintOf(t, dbA, 0)
	paths := []string{"/v1/roots/" + fp, snapshotsPath("NSS"), "/v1/providers"}
	wantA, wantB := refBodies(t, dbA, fp), refBodies(t, dbB, fp)
	for _, path := range paths {
		if bytes.Equal(wantA[path], wantB[path]) {
			t.Fatalf("fixture: %s is the same in both databases", path)
		}
	}

	srv := service.New(dbA, service.Config{})
	for gen, want := range []map[string][]byte{wantA, wantB, wantA} {
		switch gen {
		case 1:
			srv.Swap(dbB)
		case 2:
			srv.Swap(dbA)
		}
		for _, path := range paths {
			for _, pass := range []string{"cold", "warm"} {
				if got := readOK(t, srv, path); !bytes.Equal(got, want[path]) {
					t.Fatalf("generation %d, %s GET %s:\n got %s\nwant %s", gen+1, pass, path, got, want[path])
				}
			}
		}
	}
}

// TestReadBodiesMatchEpochUnderSwapStorm: readers hammer one root and one
// snapshot list while the server flips between two databases; every body
// must be the one of the generation its X-Rootpack-Epoch names. Run under
// -race (CI does) this also covers the first-request rendering.
func TestReadBodiesMatchEpochUnderSwapStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("swap storm skipped in -short mode")
	}
	dbA := swapDB(t, "2020-01-01", 0, 1, 2)
	dbB := grownDB(t, "2020-01-01")
	fp := fingerprintOf(t, dbA, 0)
	paths := []string{"/v1/roots/" + fp, snapshotsPath("NSS")}
	// Epoch 1 serves dbA and the swapper alternates dbB, dbA, ...: even
	// epochs are dbB, odd ones dbA.
	byParity := [2]map[string][]byte{refBodies(t, dbB, fp), refBodies(t, dbA, fp)}

	srv := service.New(dbA, service.Config{})
	const swaps, readers, minReads = 200, 8, 200
	swapping := make(chan struct{})
	go func() {
		defer close(swapping)
		for i := 0; i < swaps; i++ {
			if i%2 == 0 {
				srv.Swap(dbB)
			} else {
				srv.Swap(dbA)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		epochs = map[uint64]bool{}
	)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-swapping:
					if i >= minReads {
						return
					}
				default:
				}
				path := paths[(g+i)%len(paths)]
				body, epoch, err := read(srv, path)
				if err != nil {
					t.Error(err)
					return
				}
				if want := byParity[epoch%2][path]; !bytes.Equal(body, want) {
					t.Errorf("GET %s at epoch %d:\n got %s\nwant %s", path, epoch, body, want)
					return
				}
				mu.Lock()
				epochs[epoch] = true
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if len(epochs) < 2 {
		t.Fatalf("readers saw %d generation(s); the storm did not interleave", len(epochs))
	}
}
