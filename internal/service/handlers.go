package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/store"
)

// apiError is the uniform error envelope.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Warn("encode response", "err", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// readBody reads a request body into buf, answering an over-cap body with
// 413. The cap itself is applied by withTimeout from the single
// Config.MaxBodyBytes value (default DefaultMaxBodyBytes; the batch
// endpoint enforces the same value per NDJSON line), so it cannot drift
// between POST routes. ok is false when a response has been written.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, buf []byte) (body []byte, ok bool) {
	b := bytes.NewBuffer(buf)
	if _, err := b.ReadFrom(r.Body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		} else {
			s.writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		}
		return b.Bytes(), false
	}
	return b.Bytes(), true
}

// decodeJSONBody decodes a JSON request body into v, answering malformed
// bodies — trailing data after the value included — with 400 and
// over-limit ones with 413. Returns false when a response has already
// been written.
func (s *Server) decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := s.readBody(w, r, nil)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return false
	}
	return true
}

// providerSummary is one row of GET /v1/providers.
type providerSummary struct {
	Name string `json:"name"`
	// Kind tags the provider's ecosystem: "tls", "ct" or "manifest".
	Kind          string    `json:"kind"`
	Snapshots     int       `json:"snapshots"`
	First         time.Time `json:"first"`
	Latest        time.Time `json:"latest"`
	LatestVersion string    `json:"latest_version"`
	LatestRoots   int       `json:"latest_roots"`
}

type providersResponse struct {
	Providers      []providerSummary `json:"providers"`
	TotalSnapshots int               `json:"total_snapshots"`
	IndexedRoots   int               `json:"indexed_roots"`
}

func (s *Server) handleProviders(w http.ResponseWriter, r *http.Request) {
	st := s.cur()
	s.stampGeneration(w, st)
	if s.conditionalGet(w, r, st) {
		return
	}
	resp := providersResponse{
		TotalSnapshots: st.db.TotalSnapshots(),
		IndexedRoots:   st.index.Size(),
	}
	for _, name := range st.db.Providers() {
		h := st.db.History(name)
		latest := h.Latest()
		resp.Providers = append(resp.Providers, providerSummary{
			Name:          name,
			Kind:          string(latest.Kind.Normalize()),
			Snapshots:     h.Len(),
			First:         h.First().Date,
			Latest:        latest.Date,
			LatestVersion: latest.Version,
			LatestRoots:   latest.Len(),
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// snapshotSummary is one row of GET /v1/providers/{p}/snapshots.
type snapshotSummary struct {
	Version    string    `json:"version"`
	Date       time.Time `json:"date"`
	Roots      int       `json:"roots"`
	TrustedTLS int       `json:"trusted_server_auth"`
}

type snapshotsResponse struct {
	Provider  string            `json:"provider"`
	Snapshots []snapshotSummary `json:"snapshots"`
}

func (s *Server) handleSnapshots(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("provider")
	st := s.cur()
	s.stampGeneration(w, st)
	h := st.db.History(name)
	if h == nil {
		s.writeError(w, http.StatusNotFound, "unknown provider %q", name)
		return
	}
	resp := snapshotsResponse{Provider: name}
	for _, snap := range h.Snapshots() {
		resp.Snapshots = append(resp.Snapshots, snapshotSummary{
			Version:    snap.Version,
			Date:       snap.Date,
			Roots:      snap.Len(),
			TrustedTLS: snap.TrustedCount(store.ServerAuth),
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRoot(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	st := s.cur()
	s.stampGeneration(w, st)
	info, ok := st.index.Lookup(fp)
	if !ok {
		// Distinguish malformed hex from a clean miss.
		if !isHexFingerprint(fp) {
			s.writeError(w, http.StatusBadRequest, "malformed fingerprint %q: want 64 hex chars", fp)
			return
		}
		s.writeError(w, http.StatusNotFound, "no store ever contained root %s", fp)
		return
	}
	if s.conditionalGet(w, r, st) {
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

func isHexFingerprint(s string) bool {
	s = strings.ReplaceAll(strings.TrimSpace(s), ":", "")
	if len(s) != 2*sha256.Size {
		return false
	}
	_, err := hex.DecodeString(s)
	return err == nil
}

// rootRef is a membership row in the diff response.
type rootRef struct {
	Fingerprint string `json:"fingerprint"`
	Label       string `json:"label,omitempty"`
}

type trustChangeRow struct {
	Fingerprint          string     `json:"fingerprint"`
	Label                string     `json:"label,omitempty"`
	Purpose              string     `json:"purpose"`
	Old                  string     `json:"old"`
	New                  string     `json:"new"`
	DistrustAfter        *time.Time `json:"distrust_after,omitempty"`
	DistrustAfterCleared bool       `json:"distrust_after_cleared,omitempty"`
}

type diffResponse struct {
	A            string           `json:"a"`
	B            string           `json:"b"`
	Added        []rootRef        `json:"added"`
	Removed      []rootRef        `json:"removed"`
	TrustChanges []trustChangeRow `json:"trust_changes"`
}

// handleDiff serves GET /v1/diff?a=Provider[@Version]&b=Provider[@Version]:
// membership and trust changes of b relative to a.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	aRef, bRef := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if aRef == "" || bRef == "" {
		s.writeError(w, http.StatusBadRequest, "diff requires both ?a= and ?b= snapshot refs (Provider or Provider@Version)")
		return
	}
	at, err := parseAt(r.URL.Query().Get("at"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := s.cur()
	s.stampGeneration(w, st)
	a, err := st.resolveSnapshot(aRef, at)
	if err != nil {
		s.writeRefError(w, err)
		return
	}
	b, err := st.resolveSnapshot(bRef, at)
	if err != nil {
		s.writeRefError(w, err)
		return
	}
	if s.conditionalGet(w, r, st) {
		return
	}
	d := store.DiffSnapshots(a, b)
	resp := diffResponse{A: a.Key(), B: b.Key()}
	for _, e := range d.Added {
		resp.Added = append(resp.Added, rootRef{e.Fingerprint.String(), e.Label})
	}
	for _, e := range d.Removed {
		resp.Removed = append(resp.Removed, rootRef{e.Fingerprint.String(), e.Label})
	}
	for _, tc := range d.TrustChanges {
		row := trustChangeRow{
			Fingerprint: tc.Fingerprint.String(),
			Label:       tc.Label,
			Purpose:     tc.Purpose.String(),
			Old:         tc.Old.String(),
			New:         tc.New.String(),
		}
		if tc.DistrustAfterSet {
			t := tc.DistrustAfter
			row.DistrustAfter = &t
		}
		row.DistrustAfterCleared = tc.DistrustAfterCleared
		resp.TrustChanges = append(resp.TrustChanges, row)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// refError distinguishes unknown references (404) from malformed ones (400).
type refError struct {
	notFound bool
	msg      string
}

func (e *refError) Error() string { return e.msg }

func (s *Server) writeRefError(w http.ResponseWriter, err error) {
	var re *refError
	if errors.As(err, &re) && re.notFound {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.writeError(w, http.StatusBadRequest, "%v", err)
}

// resolveSnapshot resolves "Provider" (snapshot in force at `at`, latest
// when at is zero) or "Provider@Version" (exact release) within one
// serving generation.
func (st *dbState) resolveSnapshot(ref string, at time.Time) (*store.Snapshot, error) {
	provider, version, hasVersion := strings.Cut(ref, "@")
	h := st.db.History(provider)
	if h == nil {
		return nil, &refError{notFound: true, msg: fmt.Sprintf("unknown provider %q", provider)}
	}
	if hasVersion {
		for _, snap := range h.Snapshots() {
			if snap.Version == version {
				return snap, nil
			}
		}
		return nil, &refError{notFound: true, msg: fmt.Sprintf("provider %q has no version %q", provider, version)}
	}
	if !at.IsZero() {
		if snap := h.At(at); snap != nil {
			return snap, nil
		}
		return nil, &refError{notFound: true, msg: fmt.Sprintf("provider %q has no snapshot at %s", provider, at.Format("2006-01-02"))}
	}
	return h.Latest(), nil
}

// parseAt accepts RFC 3339 or bare dates.
func parseAt(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	for _, layout := range []string{time.RFC3339, "2006-01-02"} {
		if t, err := time.Parse(layout, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("invalid time %q: want RFC 3339 or YYYY-MM-DD", s)
}

// generationInfo identifies the serving generation in /healthz: the
// rootpack content hash of the database and the cluster epoch — the same
// values every /v1 response stamps as X-Rootpack-Hash/-Epoch headers.
type generationInfo struct {
	Hash  string `json:"hash"`
	Epoch uint64 `json:"epoch"`
}

// healthResponse is GET /healthz.
type healthResponse struct {
	Status       string         `json:"status"`
	Providers    int            `json:"providers"`
	Snapshots    int            `json:"snapshots"`
	IndexedRoots int            `json:"indexed_roots"`
	Generation   generationInfo `json:"generation"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.cur()
	s.stampGeneration(w, st)
	s.writeJSON(w, http.StatusOK, healthResponse{
		Status:       "ok",
		Providers:    len(st.db.Providers()),
		Snapshots:    st.db.TotalSnapshots(),
		IndexedRoots: st.index.Size(),
		Generation:   generationInfo{Hash: st.hashHex(), Epoch: st.epoch},
	})
}
