package cluster_test

// Unit coverage for the distribution fabric: origin wire semantics
// (conditional GET, long-poll, Range, blob retention), replica
// download/verify/swap, resume after a mid-transfer abort, corrupt-blob
// rejection with last-known-good fallback, and cold restart from the
// content-addressed cache.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/cluster"
	"repro/internal/store"
	"repro/internal/testcerts"
)

func ts(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

// testDB builds a two-provider database over the shared test roots at the
// given indices. Distinct versions produce distinct archive hashes.
func testDB(t *testing.T, version string, idx ...int) *store.Database {
	t.Helper()
	db := store.NewDatabase()
	for _, provider := range []string{"NSS", "Debian"} {
		snap := store.NewSnapshot(provider, version, ts(2021, 6, 1))
		for _, i := range idx {
			e, err := store.NewTrustedEntry(testcerts.Roots(i + 1)[i].DER, store.ServerAuth)
			if err != nil {
				t.Fatal(err)
			}
			snap.Add(e)
		}
		if err := db.AddSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func publish(t *testing.T, o *cluster.Origin, db *store.Database) cluster.Manifest {
	t.Helper()
	m, err := o.Publish(context.Background(), db, [archive.HashLen]byte{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func fetchManifest(t *testing.T, base string, hdr map[string]string) (*http.Response, cluster.Manifest) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, base+"/cluster/v1/manifest", nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var m cluster.Manifest
	if res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
	}
	res.Body.Close()
	return res, m
}

func TestOriginManifestAndArchive(t *testing.T) {
	o := cluster.NewOrigin(cluster.OriginOptions{})
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	// Before any publish the manifest endpoint refuses service.
	if res, _ := fetchManifest(t, srv.URL, nil); res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-publish manifest status %d, want 503", res.StatusCode)
	}

	want := publish(t, o, testDB(t, "v1", 0, 1))
	if want.Epoch != 1 || len(want.Hash) != 64 || want.Size <= 0 {
		t.Fatalf("published manifest malformed: %+v", want)
	}

	res, got := fetchManifest(t, srv.URL, nil)
	if res.StatusCode != http.StatusOK || got.Hash != want.Hash || got.Epoch != 1 {
		t.Fatalf("manifest = %+v (status %d), want %+v", got, res.StatusCode, want)
	}
	if etag := res.Header.Get("ETag"); etag != want.ETag() {
		t.Fatalf("manifest ETag %q, want %q", etag, want.ETag())
	}
	if h := res.Header.Get("X-Rootpack-Hash"); h != want.Hash {
		t.Fatalf("manifest X-Rootpack-Hash %q, want %q", h, want.Hash)
	}

	// Conditional GET with the current tag revalidates to 304; a stale or
	// weak-form tag list still matches per RFC 9110 weak comparison.
	for _, inm := range []string{want.ETag(), `W/"zzz", W/` + want.ETag(), `"a", ` + want.ETag()} {
		if res, _ := fetchManifest(t, srv.URL, map[string]string{"If-None-Match": inm}); res.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", inm, res.StatusCode)
		}
	}
	if res, _ := fetchManifest(t, srv.URL, map[string]string{"If-None-Match": `"stale"`}); res.StatusCode != http.StatusOK {
		t.Errorf("stale If-None-Match: status %d, want 200", res.StatusCode)
	}

	// The blob round-trips and re-verifies.
	blobRes, err := http.Get(srv.URL + "/cluster/v1/archive/" + want.Hash)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(blobRes.Body)
	blobRes.Body.Close()
	if int64(len(blob)) != want.Size {
		t.Fatalf("blob is %d bytes, manifest says %d", len(blob), want.Size)
	}
	ar, err := archive.NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ar.Verify(); err != nil {
		t.Fatalf("served blob failed verification: %v", err)
	}

	// Range support: the second half of the blob comes back as 206.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/cluster/v1/archive/"+want.Hash, nil)
	req.Header.Set("Range", "bytes=100-")
	rangeRes, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := io.ReadAll(rangeRes.Body)
	rangeRes.Body.Close()
	if rangeRes.StatusCode != http.StatusPartialContent {
		t.Fatalf("range request status %d, want 206", rangeRes.StatusCode)
	}
	if !bytes.Equal(part, blob[100:]) {
		t.Fatal("range response bytes do not match the blob tail")
	}

	if res, err := http.Get(srv.URL + "/cluster/v1/archive/" + strings.Repeat("ab", 32)); err != nil {
		t.Fatal(err)
	} else if res.Body.Close(); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown hash status %d, want 404", res.StatusCode)
	}
}

func TestOriginPublishDedupAndRetention(t *testing.T) {
	o := cluster.NewOrigin(cluster.OriginOptions{})
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	m1 := publish(t, o, testDB(t, "v1", 0))
	again := publish(t, o, testDB(t, "v1", 0))
	if again.Epoch != m1.Epoch || again.Hash != m1.Hash {
		t.Fatalf("republishing identical content moved the manifest: %+v -> %+v", m1, again)
	}

	m2 := publish(t, o, testDB(t, "v2", 0, 1))
	if m2.Epoch != m1.Epoch+1 {
		t.Fatalf("epoch %d after new publish, want %d", m2.Epoch, m1.Epoch+1)
	}
	// A replica mid-download of the previous generation must not 404.
	for _, h := range []string{m1.Hash, m2.Hash} {
		res, err := http.Get(srv.URL + "/cluster/v1/archive/" + h)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Errorf("archive %s status %d, want 200", h[:12], res.StatusCode)
		}
	}
	// Two generations back is gone.
	m3 := publish(t, o, testDB(t, "v3", 1))
	_ = m3
	res, err := http.Get(srv.URL + "/cluster/v1/archive/" + m1.Hash)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("evicted archive status %d, want 404", res.StatusCode)
	}
}

func TestOriginLongPoll(t *testing.T) {
	o := cluster.NewOrigin(cluster.OriginOptions{})
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	m1 := publish(t, o, testDB(t, "v1", 0))

	// A wait with no change times out as 304.
	start := time.Now()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/cluster/v1/manifest?wait=150ms", nil)
	req.Header.Set("If-None-Match", m1.ETag())
	res2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode != http.StatusNotModified {
		t.Fatalf("long-poll timeout status %d, want 304", res2.StatusCode)
	}
	if time.Since(start) < 100*time.Millisecond {
		t.Fatal("long-poll returned before the wait elapsed")
	}

	// A publish during the wait wakes the poll with the new manifest.
	type result struct {
		status int
		m      cluster.Manifest
	}
	done := make(chan result, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/cluster/v1/manifest?wait=10s", nil)
		req.Header.Set("If-None-Match", m1.ETag())
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- result{status: -1}
			return
		}
		var m cluster.Manifest
		json.NewDecoder(res.Body).Decode(&m)
		res.Body.Close()
		done <- result{res.StatusCode, m}
	}()
	time.Sleep(100 * time.Millisecond) // let the poll park
	m2 := publish(t, o, testDB(t, "v2", 0, 1))
	select {
	case r := <-done:
		if r.status != http.StatusOK || r.m.Hash != m2.Hash || r.m.Epoch != m2.Epoch {
			t.Fatalf("woken poll returned %+v (status %d), want %+v", r.m, r.status, m2)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll not woken by publish")
	}

	// Malformed wait is a 400, not a hang.
	badRes, err := http.Get(srv.URL + "/cluster/v1/manifest?wait=potato")
	if err != nil {
		t.Fatal(err)
	}
	badRes.Body.Close()
	if badRes.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wait status %d, want 400", badRes.StatusCode)
	}
}

// faultGate wraps an origin handler with switchable failure injection for
// the archive endpoint: full outage, truncation after N body bytes, or
// bit-flipped body bytes. This is how the tests "kill" the origin and
// corrupt the network path without racing on listeners.
type faultGate struct {
	inner      http.Handler
	down       atomic.Bool
	truncateAt atomic.Int64 // >0: serve N archive body bytes, then abort
	corrupt    atomic.Bool  // flip a byte in every archive response
	sawRange   atomic.Bool
}

func (g *faultGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.down.Load() {
		http.Error(w, "origin down", http.StatusServiceUnavailable)
		return
	}
	if strings.Contains(r.URL.Path, "/archive/") {
		if r.Header.Get("Range") != "" {
			g.sawRange.Store(true)
		}
		if n := g.truncateAt.Load(); n > 0 {
			g.inner.ServeHTTP(&truncatingWriter{ResponseWriter: w, remaining: n}, r)
			return
		}
		if g.corrupt.Load() {
			g.inner.ServeHTTP(&corruptingWriter{ResponseWriter: w}, r)
			return
		}
	}
	g.inner.ServeHTTP(w, r)
}

type truncatingWriter struct {
	http.ResponseWriter
	remaining int64
}

func (t *truncatingWriter) Write(p []byte) (int, error) {
	if int64(len(p)) >= t.remaining {
		t.ResponseWriter.Write(p[:t.remaining])
		if f, ok := t.ResponseWriter.(http.Flusher); ok {
			f.Flush() // the truncated prefix must reach the client
		}
		panic(http.ErrAbortHandler) // then cut the connection mid-body
	}
	t.remaining -= int64(len(p))
	return t.ResponseWriter.Write(p)
}

type corruptingWriter struct {
	http.ResponseWriter
	wrote int64
}

func (c *corruptingWriter) Write(p []byte) (int, error) {
	// Flip one bit in the byte at absolute offset 64 — inside section
	// data, past the header, before the footer.
	q := p
	if c.wrote <= 64 && 64 < c.wrote+int64(len(p)) {
		q = bytes.Clone(p)
		q[64-c.wrote] ^= 0x40
	}
	n, err := c.ResponseWriter.Write(q)
	c.wrote += int64(n)
	return n, err
}

func newReplica(t *testing.T, originURL, cacheDir string, onSwap func(*store.Database, cluster.Manifest)) *cluster.Replica {
	t.Helper()
	rep, err := cluster.NewReplica(cluster.ReplicaConfig{
		OriginURL:  originURL,
		CacheDir:   cacheDir,
		Interval:   20 * time.Millisecond,
		WaitFor:    200 * time.Millisecond,
		MaxBackoff: 100 * time.Millisecond,
		OnSwap:     onSwap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestReplicaSyncAndSwap(t *testing.T) {
	o := cluster.NewOrigin(cluster.OriginOptions{})
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	db1 := testDB(t, "v1", 0, 1)
	m1 := publish(t, o, db1)

	var swapped []cluster.Manifest
	rep := newReplica(t, srv.URL, t.TempDir(), func(_ *store.Database, m cluster.Manifest) {
		swapped = append(swapped, m)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	db, m, err := rep.Bootstrap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Hash != m1.Hash || m.Epoch != 1 {
		t.Fatalf("bootstrap manifest %+v, want %+v", m, m1)
	}
	if err := archive.Equal(db, db1); err != nil {
		t.Fatalf("bootstrapped database differs from published one: %v", err)
	}

	// Idle poll: nothing changed, nothing swapped.
	if sw, err := rep.SyncOnce(ctx); err != nil || sw {
		t.Fatalf("idle SyncOnce = (%v, %v), want (false, nil)", sw, err)
	}

	db2 := testDB(t, "v2", 1, 2)
	m2 := publish(t, o, db2)
	sw, err := rep.SyncOnce(ctx)
	if err != nil || !sw {
		t.Fatalf("SyncOnce after publish = (%v, %v), want (true, nil)", sw, err)
	}
	// OnSwap fired once for the bootstrap generation and once for m2.
	if len(swapped) != 2 || swapped[0].Hash != m1.Hash || swapped[1].Hash != m2.Hash || swapped[1].Epoch != 2 {
		t.Fatalf("OnSwap calls = %+v, want [m1 m2]", swapped)
	}
	if cur, _ := rep.Current(); cur.Hash != m2.Hash {
		t.Fatalf("Current() = %+v, want %+v", cur, m2)
	}
}

func TestReplicaResumesPartialDownload(t *testing.T) {
	o := cluster.NewOrigin(cluster.OriginOptions{})
	gate := &faultGate{inner: o.Handler()}
	srv := httptest.NewServer(gate)
	defer srv.Close()
	m := publish(t, o, testDB(t, "v1", 0, 1, 2))

	cache := t.TempDir()
	rep := newReplica(t, srv.URL, cache, nil)
	ctx := context.Background()

	// First attempt dies mid-body, leaving a resumable partial file.
	cut := m.Size / 3
	gate.truncateAt.Store(cut)
	if _, err := rep.SyncOnce(ctx); err == nil {
		t.Fatal("SyncOnce succeeded through a truncated transfer")
	}
	partial := filepath.Join(cache, m.Hash+".rootpack.partial")
	if fi, err := os.Stat(partial); err != nil || fi.Size() != cut {
		t.Fatalf("partial file after abort: %v (size %v), want %d bytes", err, fiSize(fi), cut)
	}

	// Second attempt resumes with a Range request and completes.
	gate.truncateAt.Store(0)
	sw, err := rep.SyncOnce(ctx)
	if err != nil || !sw {
		t.Fatalf("resumed SyncOnce = (%v, %v), want (true, nil)", sw, err)
	}
	if !gate.sawRange.Load() {
		t.Fatal("resume never sent a Range request")
	}
	if _, err := os.Stat(partial); !os.IsNotExist(err) {
		t.Fatalf("partial file still present after successful sync: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(cache, m.Hash+".rootpack")); err != nil || fi.Size() != m.Size {
		t.Fatalf("cached archive: %v (size %v), want %d bytes", err, fiSize(fi), m.Size)
	}
}

func fiSize(fi os.FileInfo) int64 {
	if fi == nil {
		return -1
	}
	return fi.Size()
}

func TestReplicaRejectsCorruptArchiveKeepsLastGood(t *testing.T) {
	o := cluster.NewOrigin(cluster.OriginOptions{})
	gate := &faultGate{inner: o.Handler()}
	srv := httptest.NewServer(gate)
	defer srv.Close()
	m1 := publish(t, o, testDB(t, "v1", 0, 1))

	rep := newReplica(t, srv.URL, t.TempDir(), nil)
	ctx := context.Background()
	if _, _, err := rep.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}

	// The next generation arrives bit-flipped: the replica must refuse it
	// and keep serving m1.
	gate.corrupt.Store(true)
	publish(t, o, testDB(t, "v2", 1, 2))
	if _, err := rep.SyncOnce(ctx); err == nil {
		t.Fatal("SyncOnce accepted a corrupted archive")
	}
	if cur, ok := rep.Current(); !ok || cur.Hash != m1.Hash {
		t.Fatalf("after corrupt download Current() = %+v, want last good %s", cur, m1.Hash[:12])
	}

	// Once the network heals, the same generation syncs cleanly — the
	// poisoned partial must not wedge the retry.
	gate.corrupt.Store(false)
	sw, err := rep.SyncOnce(ctx)
	if err != nil || !sw {
		t.Fatalf("post-heal SyncOnce = (%v, %v), want (true, nil)", sw, err)
	}
}

func TestReplicaBootstrapFromCacheWhenOriginDown(t *testing.T) {
	o := cluster.NewOrigin(cluster.OriginOptions{})
	srv := httptest.NewServer(o.Handler())
	db1 := testDB(t, "v1", 0, 1)
	m1 := publish(t, o, db1)

	cache := t.TempDir()
	rep1 := newReplica(t, srv.URL, cache, nil)
	ctx := context.Background()
	if _, _, err := rep1.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	srv.Close() // origin gone

	// A fresh replica process over the same cache dir serves the cached
	// generation instead of failing.
	rep2 := newReplica(t, srv.URL, cache, nil)
	db, m, err := rep2.Bootstrap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Hash != m1.Hash {
		t.Fatalf("cache bootstrap hash %s, want %s", m.Hash[:12], m1.Hash[:12])
	}
	if err := archive.Equal(db, db1); err != nil {
		t.Fatalf("cache-bootstrapped database differs: %v", err)
	}

	// With no cache and no origin, Bootstrap respects the context.
	rep3 := newReplica(t, srv.URL, t.TempDir(), nil)
	shortCtx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
	defer cancel()
	if _, _, err := rep3.Bootstrap(shortCtx); err == nil {
		t.Fatal("Bootstrap with no origin and no cache reported success")
	}
}

func TestReplicaAdoptsEpochAfterCacheBootstrap(t *testing.T) {
	o := cluster.NewOrigin(cluster.OriginOptions{})
	gate := &faultGate{inner: o.Handler()}
	srv := httptest.NewServer(gate)
	defer srv.Close()
	publish(t, o, testDB(t, "v1", 0))
	m2 := publish(t, o, testDB(t, "v2", 0, 1)) // epoch 2

	// First replica fills the cache, then disappears.
	cache := t.TempDir()
	ctx := context.Background()
	if _, _, err := newReplica(t, srv.URL, cache, nil).Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}

	// A replica restarted during an origin outage bootstraps from cache
	// with epoch 0 (unknowable offline)...
	gate.down.Store(true)
	rep := newReplica(t, srv.URL, cache, nil)
	if _, m, err := rep.Bootstrap(ctx); err != nil || m.Epoch != 0 || m.Hash != m2.Hash {
		t.Fatalf("cache bootstrap = (%+v, %v), want epoch 0 with cached hash", m, err)
	}

	// ...and learns the real epoch from the first 304's header once the
	// origin returns, even though the content never changes.
	gate.down.Store(false)
	if sw, err := rep.SyncOnce(ctx); err != nil || sw {
		t.Fatalf("matched-content SyncOnce = (%v, %v), want (false, nil)", sw, err)
	}
	if cur, _ := rep.Current(); cur.Epoch != m2.Epoch {
		t.Fatalf("epoch after 304 = %d, want origin's %d", cur.Epoch, m2.Epoch)
	}
}

func TestReplicaCachePruning(t *testing.T) {
	o := cluster.NewOrigin(cluster.OriginOptions{})
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	cache := t.TempDir()
	rep := newReplica(t, srv.URL, cache, nil)
	ctx := context.Background()
	for i, v := range []string{"v1", "v2", "v3", "v4"} {
		publish(t, o, testDB(t, v, i%3))
		if _, err := rep.SyncOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	var packs int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".rootpack") {
			packs++
		}
	}
	if packs > 2 {
		t.Fatalf("cache holds %d archives after pruning, want <= 2", packs)
	}
	// The current generation always survives pruning.
	cur, _ := rep.Current()
	if _, err := os.Stat(filepath.Join(cache, cur.Hash+".rootpack")); err != nil {
		t.Fatalf("current generation pruned from cache: %v", err)
	}
}

func TestManifestHashBytes(t *testing.T) {
	m := cluster.Manifest{Hash: strings.Repeat("0a", 32), Size: 10}
	h, err := m.HashBytes()
	if err != nil || h[0] != 0x0a {
		t.Fatalf("HashBytes = (%v, %v)", h, err)
	}
	for _, bad := range []string{"", "zz", strings.Repeat("ab", 31)} {
		if _, err := (cluster.Manifest{Hash: bad, Size: 1}).HashBytes(); err == nil {
			t.Errorf("HashBytes(%q) accepted a malformed hash", bad)
		}
	}
	if (cluster.Manifest{Hash: strings.Repeat("ab", 32), Size: 0}).Valid() {
		t.Error("zero-size manifest reported valid")
	}
}
