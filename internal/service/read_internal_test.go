package service

// Bounds of the rendered read bodies: only lookups that resolve in the
// serving generation memoize a body, so request traffic cannot grow them
// past the generation's own database, and every spelling of one
// fingerprint shares one body.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/testcerts"
)

// readTestDB builds a one-snapshot NSS database over the shared test roots
// 0..n-1.
func readTestDB(t *testing.T, n int) *store.Database {
	t.Helper()
	db := store.NewDatabase()
	snap := store.NewSnapshot("NSS", "2020-01-01", time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	for _, r := range testcerts.Roots(n) {
		e, err := store.NewTrustedEntry(r.DER, store.ServerAuth)
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

// renderedBodies counts the generation's read bodies rendered so far.
func renderedBodies(st *dbState) int {
	n := 0
	if st.providersBody.body != nil {
		n++
	}
	for i := range st.snapshotBodies {
		if st.snapshotBodies[i].body != nil {
			n++
		}
	}
	for i := range st.index.slots {
		if st.index.slots[i].body.body != nil {
			n++
		}
	}
	return n
}

func serveGet(s *Server, path string) (int, string) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

// rootFP returns the fingerprint of the i-th root of the serving database.
func rootFP(s *Server, i int) string {
	return s.cur().db.AllSnapshots()[0].Entries()[i].Fingerprint.String()
}

// TestReadMissesMemoizeNothing: thousands of unknown, malformed and
// unknown-provider reads render no body and keep their error envelopes.
func TestReadMissesMemoizeNothing(t *testing.T) {
	s := New(readTestDB(t, 2), Config{})
	for i := 0; i < 3000; i++ {
		miss := fmt.Sprintf("%064x", i)
		bad := fmt.Sprintf("zz%d", i)
		provider := fmt.Sprintf("Store%d", i)
		for _, c := range []struct {
			path, body string
			code       int
		}{
			{"/v1/roots/" + miss, `{"error":"no store ever contained root ` + miss + `"}`, http.StatusNotFound},
			{"/v1/roots/" + bad, `{"error":"malformed fingerprint \"` + bad + `\": want 64 hex chars"}`, http.StatusBadRequest},
			{"/v1/providers/" + provider + "/snapshots", `{"error":"unknown provider \"` + provider + `\""}`, http.StatusNotFound},
		} {
			if code, body := serveGet(s, c.path); code != c.code || body != c.body+"\n" {
				t.Fatalf("GET %s: %d %q, want %d %q", c.path, code, body, c.code, c.body+"\n")
			}
		}
	}
	if n := renderedBodies(s.cur()); n != 0 {
		t.Fatalf("misses rendered %d bodies, want 0", n)
	}
}

// TestReadRootCanonicalForms: upper-case and colon-separated spellings of a
// fingerprint are served the canonical form's bytes from one body.
func TestReadRootCanonicalForms(t *testing.T) {
	s := New(readTestDB(t, 2), Config{})
	fp := rootFP(s, 0)
	code, want := serveGet(s, "/v1/roots/"+fp)
	if code != http.StatusOK {
		t.Fatalf("GET canonical: %d %s", code, want)
	}
	var pairs []string
	for i := 0; i < len(fp); i += 2 {
		pairs = append(pairs, fp[i:i+2])
	}
	colons := strings.Join(pairs, ":")
	for _, form := range []string{strings.ToUpper(fp), colons, strings.ToUpper(colons)} {
		if code, body := serveGet(s, "/v1/roots/"+form); code != http.StatusOK || body != want {
			t.Fatalf("GET %s: %d, body equal to canonical: %v", form, code, body == want)
		}
	}
	if n := renderedBodies(s.cur()); n != 1 {
		t.Fatalf("%d bodies rendered for one root, want 1", n)
	}
}

// TestReadHeadContentLength: HEAD on each read answers the GET's headers —
// Content-Length included — with no body.
func TestReadHeadContentLength(t *testing.T) {
	s := New(readTestDB(t, 2), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{
		"/v1/providers",
		"/v1/providers/NSS/snapshots",
		"/v1/roots/" + rootFP(s, 1),
	} {
		var lengths []string
		for range 2 { // cold, then warm
			res, err := ts.Client().Head(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(res.Body)
			res.Body.Close()
			if res.StatusCode != http.StatusOK || len(got) != 0 {
				t.Fatalf("HEAD %s: %d with a %d-byte body", path, res.StatusCode, len(got))
			}
			lengths = append(lengths, res.Header.Get("Content-Length"))
		}
		_, body := serveGet(s, path)
		for _, cl := range lengths {
			if cl != strconv.Itoa(len(body)) {
				t.Fatalf("HEAD %s: Content-Length %v, GET body is %d bytes", path, lengths, len(body))
			}
		}
	}
}
