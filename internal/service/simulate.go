package service

// This file wires the removal-impact what-if engine (internal/simulate)
// into the API:
//
//	POST /v1/simulate        — evaluate one hypothetical distrust event
//	GET  /v1/simulate/sweep  — the full root × store impact ranking
//
// Both endpoints pin the serving generation at entry like every other
// handler, so a hot swap mid-request can never mix two databases in one
// answer. The engine and the sweep ranking are deterministic functions of
// the generation, so both are built once per generation (sync.Once on
// dbState) and shared by every request until the next swap; the sweep
// response is additionally ETag'd on the generation's rootpack hash so
// pollers pay 304s, not recomputation or re-download.

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/certutil"
	"repro/internal/obs"
	"repro/internal/simulate"
	"repro/internal/store"
)

// simulateRequest is the POST /v1/simulate body.
type simulateRequest struct {
	// Kind is "removal", "distrust-after" or "ca-removal".
	Kind string `json:"kind"`
	// Store is the acting provider; NSS when empty.
	Store string `json:"store,omitempty"`
	// Fingerprints name the affected roots (hex SHA-256, optionally
	// colon-separated) for removal / distrust-after events.
	Fingerprints []string `json:"fingerprints,omitempty"`
	// Owner is the CA owner substring for ca-removal events.
	Owner string `json:"owner,omitempty"`
	// Date is when the event takes effect (RFC 3339 or YYYY-MM-DD); the
	// acting store's latest snapshot date when empty.
	Date string `json:"date,omitempty"`
	// Purpose defaults to server-auth.
	Purpose string `json:"purpose,omitempty"`
}

// parseSimulateRequest maps the wire form onto an engine event. It is the
// fuzzed surface of the simulate API: whatever bytes arrive, the only
// acceptable failure mode is an error return.
func parseSimulateRequest(req simulateRequest) (simulate.Event, error) {
	kind, err := simulate.ParseKind(req.Kind)
	if err != nil {
		return simulate.Event{}, err
	}
	ev := simulate.Event{Kind: kind, Provider: req.Store, Owner: req.Owner}
	for _, fp := range req.Fingerprints {
		parsed, err := certutil.ParseFingerprint(fp)
		if err != nil {
			return simulate.Event{}, errors.Join(simulate.ErrBadEvent, err)
		}
		ev.Fingerprints = append(ev.Fingerprints, parsed)
	}
	if req.Date != "" {
		at, err := parseAt(req.Date)
		if err != nil {
			return simulate.Event{}, errors.Join(simulate.ErrBadEvent, err)
		}
		ev.Date = at
	}
	if req.Purpose != "" {
		p, err := store.ParsePurpose(req.Purpose)
		if err != nil {
			return simulate.Event{}, errors.Join(simulate.ErrBadEvent, err)
		}
		ev.Purpose = p
	}
	return ev, nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	st := s.cur()
	s.stampGeneration(w, st)

	var req simulateRequest
	if !s.decodeJSONBody(w, r, &req) {
		return
	}
	ev, err := parseSimulateRequest(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	span := obs.StartLeafSpan(r.Context(), "simulate.event")
	span.SetAttr("kind", string(ev.Kind))
	res, err := st.engine().Simulate(ev)
	span.End()
	if err != nil {
		s.metrics.simEvents.With("error").Inc()
		switch {
		case errors.Is(err, simulate.ErrUnknownProvider), errors.Is(err, simulate.ErrNoAffectedRoots):
			s.writeError(w, http.StatusNotFound, "%v", err)
		default:
			s.writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	s.metrics.simEvents.With(string(ev.Kind)).Inc()
	s.writeJSON(w, http.StatusOK, res)
}

// defaultSweepTop bounds GET /v1/simulate/sweep responses unless the
// caller asks for more with ?n=.
const defaultSweepTop = 20

// sweepResponse is GET /v1/simulate/sweep: the highest-impact removal
// scenarios of the serving generation.
type sweepResponse struct {
	Purpose string   `json:"purpose"`
	Roots   int      `json:"roots"`
	Stores  []string `json:"stores"`
	// Pairs is the number of (root, store) scenarios evaluated; Top holds
	// the n highest-impact ones of that full ranking.
	Pairs   int                   `json:"pairs"`
	Top     []simulate.SweepEntry `json:"top"`
	BuildMS float64               `json:"build_ms"`
}

func (s *Server) handleSimulateSweep(w http.ResponseWriter, r *http.Request) {
	st := s.cur()
	s.stampGeneration(w, st)
	if s.conditionalGet(w, r, st) {
		return
	}
	n := defaultSweepTop
	if q := r.URL.Query().Get("n"); q != "" {
		parsed, err := strconv.Atoi(q)
		if err != nil || parsed < 0 {
			s.writeError(w, http.StatusBadRequest, "invalid ?n=%q: want a non-negative integer", q)
			return
		}
		n = parsed
	}

	res, buildDur := st.sweepRanking(r, s)
	s.metrics.simSweeps.Inc()
	s.writeJSON(w, http.StatusOK, sweepResponse{
		Purpose: res.Purpose,
		Roots:   res.Roots,
		Stores:  res.Stores,
		Pairs:   res.Pairs,
		Top:     res.Top(n),
		BuildMS: float64(buildDur) / float64(time.Millisecond),
	})
}

// engine returns the generation's what-if engine, building it on first
// use. The engine is immutable and concurrency-safe, so one per
// generation serves every request.
func (st *dbState) engine() *simulate.Engine {
	st.simOnce.Do(func() {
		st.simEngine = simulate.New(st.db, simulate.Options{})
	})
	return st.simEngine
}

// sweepRanking returns the generation's full sweep ranking, computing it
// exactly once per generation (under an obs span and build metrics) and
// serving every later request — including conditional ones — from the
// cached result.
func (st *dbState) sweepRanking(r *http.Request, s *Server) (*simulate.SweepResult, time.Duration) {
	st.sweepOnce.Do(func() {
		span := obs.StartLeafSpan(r.Context(), "simulate.sweep")
		start := time.Now()
		st.sweepRes = st.engine().Sweep(0)
		st.sweepDur = time.Since(start)
		span.SetAttr("pairs", strconv.Itoa(st.sweepRes.Pairs))
		span.End()
		s.metrics.simSweepBuilds.Inc()
		s.metrics.simSweepPairs.Set(float64(st.sweepRes.Pairs))
		s.metrics.simSweepBuild.Set(st.sweepDur.Seconds())
	})
	return st.sweepRes, st.sweepDur
}
