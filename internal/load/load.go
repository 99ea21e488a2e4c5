package load

// Package load is trustd's load harness: an open-loop scheduler (see
// schedule.go) driving a mixed workload — reads, single verifies, batch
// verifies, SSE watch subscribers, what-if simulations — against a
// trustd base URL, with client-side latency captured in the SAME HDR
// log-linear buckets the server exposes on /metrics/prometheus
// (obs.HDRBounds), so client-observed and server-observed latency diff
// per bucket instead of being approximated across layouts.
//
// Verify traffic is keyed by the weighted synthetic user-agent
// population from internal/useragent (the paper's Table 1 marginals), so
// the UA-routing and cache paths see realistic skew rather than uniform
// keys. Every response's X-Rootpack-Hash is recorded, and verify
// verdicts are checked against the generation that produced them — the
// rolling-reload scenario asserts zero mixed-generation verdicts across
// a mid-run hot swap.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/useragent"
)

// Class is one workload class in the mix.
type Class string

// Workload classes.
const (
	ClassRead     Class = "read"     // GET endpoints (providers, roots, diff)
	ClassVerify   Class = "verify"   // POST /v1/verify with a weighted UA
	ClassBatch    Class = "batch"    // POST /v1/verify/batch, a few NDJSON lines
	ClassWatch    Class = "watch"    // SSE /v1/events/watch connect (TTFB)
	ClassSimulate Class = "simulate" // POST /v1/simulate
)

// classOrder fixes iteration/report order.
var classOrder = []Class{ClassRead, ClassVerify, ClassBatch, ClassWatch, ClassSimulate}

// Mix maps each class to its relative weight; weights need not sum to 1.
type Mix map[Class]float64

// DefaultMix mirrors a read-heavy serving profile with verification as
// the dominant write-shaped load.
func DefaultMix() Mix {
	return Mix{ClassRead: 0.45, ClassVerify: 0.35, ClassBatch: 0.05, ClassWatch: 0.05, ClassSimulate: 0.10}
}

// ParseMix parses "read=45,verify=35,batch=5,watch=5,simulate=10".
func ParseMix(s string) (Mix, error) {
	mix := Mix{}
	for _, part := range splitComma(s) {
		eq := strings.IndexByte(part, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("mix term %q: want class=weight", part)
		}
		name := part[:eq]
		w, err := strconv.ParseFloat(part[eq+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("mix term %q: weight: %v", part, err)
		}
		c := Class(name)
		switch c {
		case ClassRead, ClassVerify, ClassBatch, ClassWatch, ClassSimulate:
		default:
			return nil, fmt.Errorf("unknown workload class %q", name)
		}
		if w < 0 {
			return nil, fmt.Errorf("negative weight for %q", name)
		}
		mix[c] = w
	}
	if len(mix) == 0 {
		return nil, errors.New("empty mix")
	}
	return mix, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// Target tells the drivers what to request: cmd/loadgen fills it in from
// its flags, the package's end-to-end test from its fixture.
type Target struct {
	// ReadPaths are GET paths for ClassRead, picked round-robin.
	ReadPaths []string
	// ChainPEM is the certificate chain for verify/batch classes.
	ChainPEM string
	// Stores are explicit snapshot refs for verify/batch, joined by the
	// UA-routed store. Must be non-empty so untraceable UAs don't 422.
	Stores []string
	// SimulateBody is the POST /v1/simulate JSON body.
	SimulateBody []byte
	// CheckVerify, when set, validates one verify/batch verdict set
	// against the generation (X-Rootpack-Hash) that served it. A non-nil
	// error counts as a mixed-generation verdict — the reload-under-load
	// failure mode.
	CheckVerify func(generation string, verdicts []Verdict) error
}

// Verdict is the slice of a verify response the checker sees. Single
// verifies key verdicts by store, batch lines by provider; both carry
// outcome.
type Verdict struct {
	Store    string `json:"store"`
	Provider string `json:"provider"`
	Outcome  string `json:"outcome"`
}

// Options configures one load run.
type Options struct {
	BaseURL  string
	RPS      float64
	Duration time.Duration
	Mix      Mix
	// Seed makes the class/UA draw deterministic.
	Seed uint64
	// MaxInFlight bounds concurrent scheduled requests (default 4096).
	// When the cap is hit new arrivals are SHED and counted — never
	// queued, which would re-introduce coordinated omission.
	MaxInFlight int
	// WatchStreams is how many long-lived SSE subscribers ride alongside
	// the scheduled load (default 0).
	WatchStreams int
	// MidRun, when set, is called once when the scheduler crosses the
	// halfway point — the rolling-reload hook (swap generations, kill a
	// replica, …). It runs on its own goroutine; issuance never pauses.
	MidRun func()
	// UserAgents is the weighted UA pool for verify traffic; defaults to
	// useragent.Generate(useragent.PaperSample()).
	UserAgents []string
	// Client defaults to a pooled http.Client with generous connection
	// reuse; override to inject transports in tests.
	Client *http.Client
}

// classState accumulates one class's results.
type classState struct {
	issued    atomic.Uint64
	completed atomic.Uint64
	shed      atomic.Uint64
	transport atomic.Uint64
	status    [6]atomic.Uint64 // by code/100; index 0 = weird
	checkFail atomic.Uint64
	hist      *obs.HDRHistogram
}

func (cs *classState) observe(scheduled time.Time, status int, transportErr bool) {
	cs.completed.Add(1)
	if transportErr {
		cs.transport.Add(1)
		return
	}
	if c := status / 100; c >= 1 && c < len(cs.status) {
		cs.status[c].Add(1)
	} else {
		cs.status[0].Add(1)
	}
	cs.hist.Observe(time.Since(scheduled))
}

// Runner executes one configured run.
type Runner struct {
	opts   Options
	target Target
	client *http.Client

	classes map[Class]*classState
	sem     chan struct{}

	generations sync.Map // hash string → *atomic.Uint64
	mixed       atomic.Uint64

	watchEvents atomic.Uint64
	watch5xx    atomic.Uint64
	watchErrs   atomic.Uint64

	ua *uaPicker

	readIdx atomic.Uint64
}

// NewRunner validates options and builds a runner.
func NewRunner(opts Options, target Target) (*Runner, error) {
	if opts.BaseURL == "" {
		return nil, errors.New("load: BaseURL required")
	}
	if opts.RPS <= 0 {
		return nil, errors.New("load: RPS must be positive")
	}
	if opts.Duration <= 0 {
		return nil, errors.New("load: Duration must be positive")
	}
	if opts.Mix == nil {
		opts.Mix = DefaultMix()
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 4096
	}
	if len(opts.UserAgents) == 0 {
		opts.UserAgents = useragent.Generate(useragent.PaperSample())
	}
	client := opts.Client
	if client == nil {
		tr := &http.Transport{
			MaxIdleConns:        opts.MaxInFlight,
			MaxIdleConnsPerHost: opts.MaxInFlight,
			MaxConnsPerHost:     0,
			IdleConnTimeout:     90 * time.Second,
		}
		client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	r := &Runner{
		opts:    opts,
		target:  target,
		client:  client,
		classes: map[Class]*classState{},
		sem:     make(chan struct{}, opts.MaxInFlight),
		ua:      newUAPicker(opts.UserAgents, opts.Seed),
	}
	for _, c := range classOrder {
		r.classes[c] = &classState{hist: obs.NewHDRHistogram()}
	}
	return r, nil
}

// classPicker pre-computes the cumulative mix so each draw is one
// rand.Float64 against a tiny table.
type classPicker struct {
	classes []Class
	cum     []float64
	rng     *rand.Rand
}

func newClassPicker(mix Mix, seed uint64) *classPicker {
	p := &classPicker{rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
	var total float64
	for _, c := range classOrder {
		if w := mix[c]; w > 0 {
			p.classes = append(p.classes, c)
			total += w
			p.cum = append(p.cum, total)
		}
	}
	for i := range p.cum {
		p.cum[i] /= total
	}
	return p
}

func (p *classPicker) pick() Class {
	v := p.rng.Float64()
	for i, c := range p.cum {
		if v <= c {
			return p.classes[i]
		}
	}
	return p.classes[len(p.classes)-1]
}

// uaPicker draws user agents uniformly from the weighted pool (the pool
// itself carries the Table 1 weights as duplication) with its own seeded
// stream, guarded by a mutex — drivers run on many goroutines.
type uaPicker struct {
	mu  sync.Mutex
	rng *rand.Rand
	uas []string
}

func newUAPicker(uas []string, seed uint64) *uaPicker {
	return &uaPicker{rng: rand.New(rand.NewPCG(seed, seed^0xda942042e4dd58b5)), uas: uas}
}

func (p *uaPicker) pick() string {
	p.mu.Lock()
	ua := p.uas[p.rng.IntN(len(p.uas))]
	p.mu.Unlock()
	return ua
}

// UAMixProviders draws n user agents from the pool with the given seed
// and returns how many route to each traceable provider ("" for
// untraceable). This is exactly the draw Run makes for verify traffic,
// exported so tests can pin the distribution for a fixed seed.
func UAMixProviders(uas []string, seed uint64, n int) map[string]int {
	p := newUAPicker(uas, seed)
	out := map[string]int{}
	for i := 0; i < n; i++ {
		agent := useragent.Parse(p.pick())
		m := useragent.MapToProvider(agent)
		if m.Traceable {
			out[string(m.Provider)]++
		} else {
			out[""]++
		}
	}
	return out
}

// recordGeneration tallies one observed X-Rootpack-Hash.
func (r *Runner) recordGeneration(hash string) {
	if hash == "" {
		return
	}
	v, _ := r.generations.LoadOrStore(hash, new(atomic.Uint64))
	v.(*atomic.Uint64).Add(1)
}

// Run executes the configured load and blocks until every issued
// request completed (or the context is cancelled).
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	n := int(r.opts.RPS * r.opts.Duration.Seconds())
	if n <= 0 {
		n = 1
	}
	interval := time.Duration(float64(time.Second) / r.opts.RPS)

	// Pre-draw the class sequence so the schedule itself is deterministic
	// for a seed regardless of completion order.
	picker := newClassPicker(r.opts.Mix, r.opts.Seed)
	sequence := make([]Class, n)
	for i := range sequence {
		sequence[i] = picker.pick()
	}

	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	var watchWG sync.WaitGroup
	for i := 0; i < r.opts.WatchStreams; i++ {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			r.runWatchStream(watchCtx)
		}()
	}

	var wg sync.WaitGroup
	var midOnce sync.Once
	start := time.Now()
	issued := openLoop(ctx, start, interval, n, func(i int, scheduled time.Time) {
		if r.opts.MidRun != nil && i >= n/2 {
			midOnce.Do(func() { go r.opts.MidRun() })
		}
		class := sequence[i]
		cs := r.classes[class]
		cs.issued.Add(1)
		select {
		case r.sem <- struct{}{}:
		default:
			// At the in-flight cap: shed, never queue. Queuing would tie
			// issuance to completions — the coordinated-omission trap.
			cs.shed.Add(1)
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-r.sem }()
			r.dispatch(ctx, class, cs, scheduled)
		}()
	})
	issueWall := time.Since(start)
	wg.Wait()
	totalWall := time.Since(start)
	stopWatch()
	watchWG.Wait()

	if ctx.Err() != nil && issued < n {
		return nil, fmt.Errorf("load: run cancelled after %d/%d requests: %w", issued, n, ctx.Err())
	}
	return r.buildReport(n, issued, interval, issueWall, totalWall), nil
}

// dispatch runs one scheduled request through its class driver.
func (r *Runner) dispatch(ctx context.Context, class Class, cs *classState, scheduled time.Time) {
	var (
		status int
		err    error
	)
	switch class {
	case ClassRead:
		status, err = r.doRead(ctx)
	case ClassVerify:
		status, err = r.doVerify(ctx)
	case ClassBatch:
		status, err = r.doBatch(ctx)
	case ClassWatch:
		status, err = r.doWatchConnect(ctx)
	case ClassSimulate:
		status, err = r.doSimulate(ctx)
	}
	cs.observe(scheduled, status, err != nil)
}
