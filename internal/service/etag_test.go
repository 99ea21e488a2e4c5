package service_test

// Conditional-request coverage: the read endpoints advertise an ETag
// derived from the serving database's canonical archive hash, honour
// If-None-Match with 304s, and rotate the tag when the database is
// hot-swapped. Error responses must never short-circuit into a 304.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/service"
	"repro/internal/store"
)

// condGet issues a GET with an optional If-None-Match header and returns
// the raw response.
func condGet(t *testing.T, srv *service.Server, path, ifNoneMatch string) *http.Response {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec.Result()
}

func TestETagConditionalGet(t *testing.T) {
	db := swapDB(t, "2020-01-01", 0, 1, 2)
	srv := service.New(db, service.Config{})

	res := condGet(t, srv, "/v1/providers", "")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/providers: %d", res.StatusCode)
	}
	etag := res.Header.Get("ETag")
	if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) || len(etag) != 64+2 {
		t.Fatalf("ETag %q is not a quoted 64-hex tag", etag)
	}

	// Same tag on a conditional request → 304 with an empty body.
	res = condGet(t, srv, "/v1/providers", etag)
	if res.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: %d, want 304", res.StatusCode)
	}
	if res.Header.Get("ETag") != etag {
		t.Fatalf("304 carries ETag %q, want %q", res.Header.Get("ETag"), etag)
	}

	// Weak validators, comma lists and the wildcard all match.
	for _, inm := range []string{
		"W/" + etag,
		`"deadbeef", ` + etag,
		"*",
	} {
		if res := condGet(t, srv, "/v1/providers", inm); res.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %q: %d, want 304", inm, res.StatusCode)
		}
	}

	// A stale tag still gets a full response.
	if res := condGet(t, srv, "/v1/providers", `"0000"`); res.StatusCode != http.StatusOK {
		t.Fatalf("non-matching If-None-Match: %d, want 200", res.StatusCode)
	}

	// The tag is shared across read endpoints: same generation, same hash.
	fp := fingerprintOf(t, db, 0)
	for _, path := range []string{
		"/v1/roots/" + fp,
		"/v1/diff?a=NSS&b=Debian",
	} {
		res := condGet(t, srv, path, "")
		if res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, res.StatusCode)
		}
		if got := res.Header.Get("ETag"); got != etag {
			t.Errorf("%s ETag %q, want %q", path, got, etag)
		}
		if res := condGet(t, srv, path, etag); res.StatusCode != http.StatusNotModified {
			t.Errorf("conditional GET %s: %d, want 304", path, res.StatusCode)
		}
	}
}

func TestETagRotatesOnSwap(t *testing.T) {
	srv := service.New(swapDB(t, "2020-01-01", 0, 1, 2), service.Config{})
	res := condGet(t, srv, "/v1/providers", "")
	etag := res.Header.Get("ETag")

	srv.Swap(swapDB(t, "2020-01-01", 1, 2, 3))

	// The old tag no longer matches; the response carries a new one.
	res = condGet(t, srv, "/v1/providers", etag)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("conditional GET after swap: %d, want 200", res.StatusCode)
	}
	fresh := res.Header.Get("ETag")
	if fresh == etag || fresh == "" {
		t.Fatalf("ETag did not rotate on swap (old %q, new %q)", etag, fresh)
	}
	if res := condGet(t, srv, "/v1/providers", fresh); res.StatusCode != http.StatusNotModified {
		t.Fatalf("fresh tag conditional GET: %d, want 304", res.StatusCode)
	}
}

func TestETagNeverMasksErrors(t *testing.T) {
	srv := service.New(swapDB(t, "2020-01-01", 0, 1), service.Config{})

	// Unknown-but-well-formed fingerprint: 404, even with a wildcard INM.
	miss := strings.Repeat("ab", 32)
	if res := condGet(t, srv, "/v1/roots/"+miss, "*"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown root with If-None-Match *: %d, want 404", res.StatusCode)
	}
	// Malformed fingerprint: 400.
	if res := condGet(t, srv, "/v1/roots/nothex", "*"); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed fingerprint with If-None-Match *: %d, want 400", res.StatusCode)
	}
	// Unresolvable diff ref: 404 beats 304.
	if res := condGet(t, srv, "/v1/diff?a=NSS&b=NoSuchStore", "*"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("bad diff ref with If-None-Match *: %d, want 404", res.StatusCode)
	}
}

// TestKnownHashTagsMatchLazyTags: a database hash handed over by the
// caller — at construction or with a swap — yields exactly the tag the
// server would compute itself, and a zero hash means "compute it".
func TestKnownHashTagsMatchLazyTags(t *testing.T) {
	db1 := swapDB(t, "2020-01-01", 0, 1, 2)
	db2 := swapDB(t, "2020-02-01", 0, 1)
	lazy := func(db *store.Database) string {
		return condGet(t, service.New(db, service.Config{}), "/v1/providers", "").Header.Get("ETag")
	}
	h1, err := archive.HashDatabase(db1)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := archive.HashDatabase(db2)
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(db1, service.Config{DatabaseHash: h1})
	if got, want := condGet(t, srv, "/v1/providers", "").Header.Get("ETag"), lazy(db1); got != want {
		t.Fatalf("constructed with its hash: ETag %s, computed %s", got, want)
	}
	srv.SwapHashed(db2, h2)
	if got, want := condGet(t, srv, "/v1/providers", "").Header.Get("ETag"), lazy(db2); got != want {
		t.Fatalf("swapped with its hash: ETag %s, computed %s", got, want)
	}
	srv.SwapHashed(db1, [archive.HashLen]byte{})
	if got, want := condGet(t, srv, "/v1/providers", "").Header.Get("ETag"), lazy(db1); got != want {
		t.Fatalf("swapped with no hash: ETag %s, computed %s", got, want)
	}
}
