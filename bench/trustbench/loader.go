package trustbench

// The load generator. One process generates all load, over at most nproc
// keep-alive connections. Open-loop arrivals are fixed at start + i/rate
// and issuance never waits for completions, so a stalled server cannot
// slow the request stream and hide its own tail; latency is timed from
// the scheduled arrival, and the generator's own lateness (send minus
// schedule) is recorded beside it. Closed loops model callers that each
// wait for their reply.

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// maxInFlight caps outstanding open-loop requests. An arrival beyond it is
// shed and counted as failed, never queued: queuing would tie issuance to
// completions.
const maxInFlight = 4096

// Loader sends a fixture's requests to one trustd.
type Loader struct {
	base   string
	client *http.Client
	conns  int
	fix    *Fixture

	// epochs records when each serving generation first answered.
	epochMu   sync.Mutex
	maxEpoch  atomic.Uint64
	firstSeen map[uint64]time.Time
}

// NewLoader builds a loader with conns keep-alive connections. It refuses
// more connections than the machine has CPUs: the loader shares the
// machine with trustd and must not out-thread it.
func NewLoader(base string, conns int, fix *Fixture) (*Loader, error) {
	if n := runtime.NumCPU(); conns < 1 || conns > n {
		return nil, fmt.Errorf("loader: %d connections requested, allowed 1..%d (nproc)", conns, n)
	}
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &Loader{
		base:      base,
		client:    &http.Client{Transport: tr, Timeout: time.Minute},
		conns:     conns,
		fix:       fix,
		firstSeen: map[uint64]time.Time{},
	}, nil
}

// Close drops the loader's idle connections.
func (l *Loader) Close() { l.client.CloseIdleConnections() }

// EpochFirstSeen returns when a response first carried X-Rootpack-Epoch e.
func (l *Loader) EpochFirstSeen(e uint64) (time.Time, bool) {
	l.epochMu.Lock()
	defer l.epochMu.Unlock()
	t, ok := l.firstSeen[e]
	return t, ok
}

// Span is one traced request as the client saw it.
type Span struct {
	Class Class     `json:"class"`
	Due   time.Time `json:"due"`
	Sent  time.Time `json:"sent"`
	Done  time.Time `json:"done"`
	Trace string    `json:"trace_id"`
	Epoch uint64    `json:"epoch"`
	OK    bool      `json:"ok"`
}

// Recorder accumulates one phase of load.
type Recorder struct {
	Lat *obs.HDRHistogram // from scheduled arrival (open) or send (closed)
	Lag *obs.HDRHistogram // send minus scheduled arrival

	attempted, failed, ops atomic.Uint64

	trace  bool
	spanMu sync.Mutex
	spans  []Span

	errMu  sync.Mutex
	errors []string

	start, end time.Time
}

// NewRecorder starts an empty phase; with trace every request keeps a span
// and carries a traceparent header.
func NewRecorder(trace bool) *Recorder {
	return &Recorder{Lat: obs.NewHDRHistogram(), Lag: obs.NewHDRHistogram(), trace: trace}
}

// Attempted, Failed and Ops report the phase's counts; Ops counts the
// work of correct responses only.
func (r *Recorder) Attempted() uint64 { return r.attempted.Load() }
func (r *Recorder) Failed() uint64    { return r.failed.Load() }
func (r *Recorder) Ops() uint64       { return r.ops.Load() }

// Elapsed is the phase's wall time, from first arrival to last completion.
func (r *Recorder) Elapsed() time.Duration { return r.end.Sub(r.start) }

// Spans returns the traced requests.
func (r *Recorder) Spans() []Span {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	return r.spans
}

// Errors returns up to the first eight failure messages.
func (r *Recorder) Errors() []string {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return append([]string(nil), r.errors...)
}

func (r *Recorder) fail(err error) {
	r.failed.Add(1)
	r.errMu.Lock()
	if len(r.errors) < 8 {
		r.errors = append(r.errors, err.Error())
	}
	r.errMu.Unlock()
}

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// do sends one request due at due and records it.
func (l *Loader) do(ctx context.Context, req *Request, rec *Recorder, due time.Time) {
	rec.attempted.Add(1)
	var body io.Reader
	if req.Body != nil {
		body = bytes.NewReader(req.Body)
	}
	hr, err := http.NewRequestWithContext(ctx, req.Method, l.base+req.Path, body)
	if err != nil {
		rec.fail(err)
		return
	}
	if req.Ctype != "" {
		hr.Header.Set("Content-Type", req.Ctype)
	}
	var traceID string
	if rec.trace {
		var id [24]byte
		_, _ = rand.Read(id[:]) // crypto/rand.Read never fails on Linux
		traceID = hex.EncodeToString(id[:16])
		hr.Header.Set("traceparent", "00-"+traceID+"-"+hex.EncodeToString(id[16:])+"-01")
	}
	sent := time.Now()
	rec.Lag.Observe(sent.Sub(due))
	resp, err := l.client.Do(hr)
	if err != nil {
		rec.fail(err)
		return
	}
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done := time.Now()
	epoch, _ := strconv.ParseUint(resp.Header.Get("X-Rootpack-Epoch"), 10, 64)
	switch {
	case err != nil:
		err = fmt.Errorf("%s %s: read body: %w", req.Method, req.Path, err)
	case resp.StatusCode != http.StatusOK:
		err = fmt.Errorf("%s %s: status %d: %.200s", req.Method, req.Path, resp.StatusCode, buf.Bytes())
	default:
		err = l.fix.Check(req, epoch, buf.Bytes())
	}
	bufPool.Put(buf)
	rec.Lat.Observe(done.Sub(due))
	if err != nil {
		rec.fail(err)
	} else {
		rec.ops.Add(uint64(req.Ops))
		l.noteEpoch(epoch, done)
	}
	if rec.trace {
		rec.spanMu.Lock()
		rec.spans = append(rec.spans, Span{Class: req.Class, Due: due, Sent: sent, Done: done, Trace: traceID, Epoch: epoch, OK: err == nil})
		rec.spanMu.Unlock()
	}
}

func (l *Loader) noteEpoch(epoch uint64, at time.Time) {
	if epoch <= l.maxEpoch.Load() {
		return
	}
	l.epochMu.Lock()
	if _, ok := l.firstSeen[epoch]; !ok {
		l.firstSeen[epoch] = at
	}
	l.epochMu.Unlock()
	for {
		cur := l.maxEpoch.Load()
		if epoch <= cur || l.maxEpoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// schedule calls fire(i, due) for i in [0, n), due at start + i/rate. It
// never skips or stretches the schedule: when it falls behind (a stalled
// fire, CPU starvation) it issues the backlog at once. It returns how many
// events fired (n unless ctx ended first).
func schedule(ctx context.Context, start time.Time, rate float64, n int, fire func(i int, due time.Time)) int {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return i
			}
		} else if ctx.Err() != nil {
			return i
		}
		fire(i, due)
	}
	return n
}

// Open runs an open loop: rate·d arrivals cycling through the pool from
// offset. It returns the pool offset after the last arrival, once every
// issued request has completed.
func (l *Loader) Open(ctx context.Context, rec *Recorder, rate float64, d time.Duration, offset int) int {
	pool := l.fix.Pool
	n := int(rate * d.Seconds())
	var wg sync.WaitGroup
	var inFlight atomic.Int64
	rec.start = time.Now()
	schedule(ctx, rec.start, rate, n, func(i int, due time.Time) {
		if inFlight.Load() >= maxInFlight {
			rec.attempted.Add(1)
			rec.fail(fmt.Errorf("arrival %d shed: %d requests in flight", i, maxInFlight))
			return
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(req *Request) {
			defer wg.Done()
			defer inFlight.Add(-1)
			l.do(ctx, req, rec, due)
		}(pool[(offset+i)%len(pool)])
	})
	wg.Wait()
	rec.end = time.Now()
	return offset + n
}

// Closed runs one caller per connection, each sending its next request
// when the previous one completes, for d. It returns the pool offset after
// the last request sent.
func (l *Loader) Closed(ctx context.Context, rec *Recorder, d time.Duration, offset int) int {
	pool := l.fix.Pool
	var next atomic.Int64
	var wg sync.WaitGroup
	rec.start = time.Now()
	deadline := rec.start.Add(d)
	for s := 0; s < l.conns; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				l.do(ctx, pool[(offset+i)%len(pool)], rec, time.Now())
			}
		}()
	}
	wg.Wait()
	rec.end = time.Now()
	return offset + int(next.Load())
}
