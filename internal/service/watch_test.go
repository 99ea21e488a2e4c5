package service_test

// The ISSUE's acceptance scenario, end to end: a trustd server stays up and
// answering while internal/tracker ingests a new snapshot directory behind
// it — the hot reload swaps the database mid-storm, /v1/events replays the
// removal with its severity tag, /v1/events/watch streams it live, and the
// index reflects the newly trusted root without a restart.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/pemstore"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/testcerts"
	"repro/internal/tracker"
)

// writeSnapshotDir writes a PEM-bundle snapshot under <root>/<provider>/<version>.
func writeSnapshotDir(t *testing.T, root, provider, version string, idx ...int) {
	t.Helper()
	dir := filepath.Join(root, provider, version)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var entries []*store.TrustEntry
	for _, i := range idx {
		e, err := store.NewTrustedEntry(testcerts.Roots(i + 1)[i].DER, store.ServerAuth)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	f, err := os.Create(filepath.Join(dir, "tls-ca-bundle.pem"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pemstore.WriteBundle(f, entries); err != nil {
		t.Fatal(err)
	}
}

func TestWatchEndToEndHotReload(t *testing.T) {
	root := t.TempDir()
	writeSnapshotDir(t, root, "NSS", "2020-01-01", 0, 1, 2)
	writeSnapshotDir(t, root, "Debian", "2020-01-01", 0, 1, 2)

	// The tracker drives reloads; the server is created from the first
	// ingested database, then swapped on every subsequent one.
	// Swaps carry the database hash the tracker learns from its sidecar
	// compile, as in cmd/trustd.
	var srv atomic.Pointer[service.Server]
	src := tracker.NewDirSource(root, 0)
	defer src.Close()
	trk, err := tracker.New(tracker.Config{
		Source: src,
		OnReloadHash: func(db *store.Database, h [archive.HashLen]byte) {
			if s := srv.Load(); s != nil {
				s.SwapHashed(db, h)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	h, _ := trk.DatabaseHash()
	inner := service.New(trk.Database(), service.Config{DatabaseHash: h})
	inner.AttachEvents(trk)
	srv.Store(inner)

	web := httptest.NewServer(inner.Handler())
	defer web.Close()

	stableFP := fingerprintOf(t, trk.Database(), 1)
	removedFP := fingerprintOf(t, trk.Database(), 0)
	newFP := func() string {
		e, err := store.NewTrustedEntry(testcerts.Roots(4)[3].DER, store.ServerAuth)
		if err != nil {
			t.Fatal(err)
		}
		return e.Fingerprint.String()
	}()

	// The new root is unknown before the reload.
	if resp, err := web.Client().Get(web.URL + "/v1/roots/" + newFP); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("new root before reload: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	// Open the SSE watch stream before the change happens.
	watchReq, _ := http.NewRequest(http.MethodGet, web.URL+"/v1/events/watch?type=root-removed", nil)
	watchResp, err := web.Client().Do(watchReq)
	if err != nil {
		t.Fatal(err)
	}
	defer watchResp.Body.Close()
	if got := watchResp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("watch content-type = %q", got)
	}
	sse := make(chan string, 16)
	go func() {
		scanner := bufio.NewScanner(watchResp.Body)
		for scanner.Scan() {
			sse <- scanner.Text()
		}
		close(sse)
	}()

	// Query storm that must never observe an error across the reload.
	stop := make(chan struct{})
	var failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := web.Client().Get(web.URL + "/v1/roots/" + stableFP)
				if err != nil {
					failures.Add(1)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					return
				}
			}
		}()
	}

	// The change: NSS's next release drops root 0 and introduces root 3.
	writeSnapshotDir(t, root, "NSS", "2020-03-01", 1, 2, 3)
	n, err := trk.Rescan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("rescan ingested %d snapshots, want 1", n)
	}

	close(stop)
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d queries failed across the hot reload", failures.Load())
	}

	// The SSE stream delivers the removal (replayed-or-live, deduped).
	deadline := time.After(5 * time.Second)
	var sawRemoval, sawSeverity bool
	for !(sawRemoval && sawSeverity) {
		select {
		case line, ok := <-sse:
			if !ok {
				t.Fatal("watch stream closed before the removal arrived")
			}
			if strings.HasPrefix(line, "event: root-removed") {
				sawRemoval = true
			}
			if strings.HasPrefix(line, "data: ") && strings.Contains(line, removedFP) {
				if !strings.Contains(line, `"severity"`) {
					t.Fatalf("event without severity tag: %s", line)
				}
				sawSeverity = true
			}
		case <-deadline:
			t.Fatal("timed out waiting for the removal on /v1/events/watch")
		}
	}

	// /v1/events replays the removal with its severity classification.
	var events struct {
		Events []struct {
			Type        string `json:"type"`
			Severity    string `json:"severity"`
			Provider    string `json:"provider"`
			Fingerprint string `json:"fingerprint"`
			Holders     []string
		} `json:"events"`
		Count int `json:"count"`
	}
	resp, err := web.Client().Get(web.URL + "/v1/events?type=root-removed")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if events.Count != 1 {
		t.Fatalf("replayed %d removals, want 1", events.Count)
	}
	rm := events.Events[0]
	if rm.Provider != "NSS" || rm.Fingerprint != removedFP {
		t.Errorf("removal = %+v", rm)
	}
	// Debian still trusts root 0, so the tracker classifies this high.
	if rm.Severity != "high" {
		t.Errorf("removal severity = %q, want high", rm.Severity)
	}

	// Filters reject garbage and pass through real constraints.
	if resp, err := web.Client().Get(web.URL + "/v1/events?min_severity=apocalyptic"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad min_severity: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	// The reload actually changed what the index serves.
	if resp, err := web.Client().Get(web.URL + "/v1/roots/" + newFP); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("new root after reload: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if got := metric(inner, "trustd_reloads_total"); got != 1 {
		t.Errorf("reloads_total = %v, want 1", got)
	}
	if _, ok := inner.Metrics().Value("trustd_provider_lag_seconds", "NSS"); !ok {
		t.Error("NSS lag gauge missing after reload")
	}
}

// TestEventsWithoutFeed pins the static-deployment behaviour: no tracker,
// no /v1/events.
func TestEventsWithoutFeed(t *testing.T) {
	_, srv := fixture(t)
	res := get(t, srv, "/v1/events", nil)
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("events without feed = %d, want 404", res.StatusCode)
	}
}
