package trustbench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/synth"
)

// Config is one run of one workload.
type Config struct {
	Root     string // checkout root
	Bins     Binaries
	Workload *Workload
	Seed     uint64
	// Window is the measured time (--seconds); Warmup precedes it.
	Window time.Duration
	Warmup time.Duration
	// Trace selects the traced pass, which reports per-layer metrics
	// instead of end-to-end ones.
	Trace bool
	// Knee selects the knee search of an open-loop workload instead.
	Knee bool
	// Starts is how many times trustd is started, each start timed from
	// exec to its first healthy answer; setup_s is their median and the
	// last start serves the run.
	Starts int
}

// Metric is one named measurement.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's outcome.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Metrics   []Metric `json:"metrics"`
	// Notes are measured numbers outside the declared metric set: the
	// residuals of the layer split, reload visibility, outcome mixes.
	Notes  []string `json:"notes,omitempty"`
	Errors []string `json:"errors,omitempty"`
	Meta   Meta     `json:"meta"`
}

func (r *Result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v, Unit: unit})
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Result) count(rec *Recorder) {
	r.Attempted += rec.Attempted()
	r.Failed += rec.Failed()
	for _, e := range rec.Errors() {
		if len(r.Errors) < 8 {
			r.Errors = append(r.Errors, e)
		}
	}
}

// In the traced pass, reload changes land every reloadRound, the first
// reloadFirst into the measured time.
const reloadFirst = time.Second

type run struct {
	cfg    Config
	res    *Result
	fix    *Fixture
	db     *store.Database
	srv    *Server
	loader *Loader
	offset int
	copier *nssCopy // reload workload only
	// visible holds, per tree change of the traced pass, the seconds until
	// a client first saw the new epoch (reload workload only).
	visible []float64
	dir     string
	tree    string // pristine tree (reload workload and traced pass)
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "trustbench %s: "+format+"\n", append([]any{r.cfg.Workload.Name}, args...)...)
}

// Run executes one workload run: fixture, timed trustd starts, warm-up,
// then either the end-to-end measurement or the traced pass.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	w := cfg.Workload
	r := &run{cfg: cfg, res: &Result{Workload: w.Name, Seed: cfg.Seed, Trace: cfg.Trace, Meta: ReadMeta()}}
	eco, err := synth.Cached(CorpusSeed)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	r.db = eco.DB
	// Each run gets its own directory, so runs and tests in one checkout
	// never share trustd logs or reload trees.
	if r.dir, err = os.MkdirTemp(filepath.Join(cfg.Root, BuildDir), "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)

	args := []string{"-seed", CorpusSeed}
	if w.Reload || cfg.Trace {
		r.logf("preparing the snapshot tree")
		if r.tree, err = PristineTree(ctx, cfg.Root, cfg.Bins, eco.DB); err != nil {
			return nil, err
		}
	}
	var served string
	if w.Reload {
		served = filepath.Join(r.dir, "tree")
		if err := LinkTree(r.tree, served); err != nil {
			return nil, err
		}
		// The oracle checks against exactly what trustd loads: the tree's
		// compiled sidecar.
		if r.db, err = archive.ReadFile(filepath.Join(r.tree, catalog.DefaultArchiveName)); err != nil {
			return nil, fmt.Errorf("read reload tree sidecar: %w", err)
		}
		args = []string{"-tree", served, "-watch", "-poll-interval", "100ms", "-settle", "0s"}
	}

	size := w.PoolSize(cfg.Warmup + cfg.Window)
	r.logf("fixture: seed %d, %d requests", cfg.Seed, size)
	if r.fix, err = NewFixture(w, size, cfg.Seed, r.db, eco.Universe); err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	r.res.note("oracle verdicts: %s", r.fix.OutcomeShares())
	if w.Reload {
		if r.copier, err = newNSSCopy(served, filepath.Join(r.dir, "staging"), r.db); err != nil {
			return nil, err
		}
	}

	setups, err := r.start(ctx, args)
	if err != nil {
		return nil, err
	}
	defer r.srv.Stop()
	if r.loader, err = NewLoader(r.srv.Base, runtime.NumCPU(), r.fix); err != nil {
		return nil, err
	}
	defer r.loader.Close()

	r.logf("warm-up %s", cfg.Warmup)
	warm := NewRecorder(false)
	r.drive(ctx, warm, cfg.Warmup)
	r.res.count(warm)

	switch {
	case cfg.Trace:
		err = r.traced(ctx)
	case cfg.Knee:
		err = r.knee(ctx)
	default:
		err = r.endToEnd(ctx, setups)
	}
	if err != nil {
		return nil, err
	}
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

// start launches trustd cfg.Starts times (at least once) and keeps the
// last one serving.
func (r *run) start(ctx context.Context, args []string) ([]float64, error) {
	var secs []float64
	for k := 0; k < max(r.cfg.Starts, 1); k++ {
		if r.srv != nil {
			r.srv.Stop()
		}
		srv, d, err := StartServer(ctx, r.cfg.Bins.Trustd, args, filepath.Join(r.dir, fmt.Sprintf("trustd-%d.log", k)))
		if err != nil {
			return nil, err
		}
		r.srv = srv
		secs = append(secs, d.Seconds())
		r.logf("trustd healthy after %.3fs", d.Seconds())
	}
	return secs, nil
}

// drive runs the workload's loop shape for d: open at the fixed rate, or
// closed with one stream per connection. The loader takes one connection
// per CPU: it shares the machine with trustd and must not out-thread it.
func (r *run) drive(ctx context.Context, rec *Recorder, d time.Duration) {
	if rate := r.cfg.Workload.Rate; rate > 0 {
		r.offset = r.loader.Open(ctx, rec, rate, d, r.offset)
	} else {
		r.offset = r.loader.Closed(ctx, rec, d, r.offset)
	}
}

// reloads toggles the NSS copy on a fixed schedule until stopped.
type reloads struct {
	changes []time.Time
	err     error
	stop    chan struct{}
	done    chan struct{}
}

func (r *run) startReloads() *reloads {
	rl := &reloads{stop: make(chan struct{}), done: make(chan struct{})}
	if r.copier == nil {
		close(rl.done)
		return rl
	}
	go func() {
		defer close(rl.done)
		wait := time.NewTimer(reloadFirst)
		defer wait.Stop()
		for {
			select {
			case <-rl.stop:
				return
			case <-wait.C:
			}
			at, err := r.copier.Toggle()
			if err != nil {
				rl.err = err
				return
			}
			rl.changes = append(rl.changes, at)
			wait.Reset(reloadRound)
		}
	}()
	return rl
}

// finish stops the schedule and returns the changes it made.
func (rl *reloads) finish() ([]time.Time, error) {
	close(rl.stop)
	<-rl.done
	return rl.changes, rl.err
}

// The end-to-end pass measures in rounds: open loop at the fixed rate, or
// the closed loop of a workload without one. Each round's latency is
// printed as a note. A reload round is one tree change, landing at its
// start, so every reload round holds one rescan, swap and post-swap stall.
const (
	roundLength = 2 * time.Second
	// reloadRound is the reload workload's round, long enough for the
	// rescan, the swap and the stall after it to end inside the round.
	reloadRound = 6 * time.Second
)

// maxColdHitRatio is the most verdict-cache hits a ColdAt workload may
// see; above it the run measures the cache, not x509, and is refused.
const maxColdHitRatio = 0.05

// round is one round's raw measurements.
type round struct {
	lat, lag obs.HDRSnapshot
	cpu      time.Duration // trustd CPU over the round
	ops      uint64        // completed ops over the round
	elapsed  time.Duration
}

// endToEnd measures the declared end-to-end metrics.
func (r *run) endToEnd(ctx context.Context, setups []float64) error {
	w := r.cfg.Workload
	r.res.add("setup_s", median(setups), "s")
	length := roundLength
	if w.Reload {
		length = reloadRound
	}
	n := max(1, int(r.cfg.Window/length))
	d := r.cfg.Window / time.Duration(n)
	r.logf("%d rounds of %s", n, d)

	before, err := FetchScrape(ctx, r.srv.Base)
	if err != nil {
		return err
	}
	var rounds []round
	var changes []time.Time
	for k := 0; k < n; k++ {
		if r.copier != nil {
			at, err := r.copier.Toggle()
			if err != nil {
				return fmt.Errorf("reload tree change: %w", err)
			}
			changes = append(changes, at)
		}
		cpu0, err := r.srv.CPU()
		if err != nil {
			return err
		}
		rec := NewRecorder(false)
		r.drive(ctx, rec, d)
		cpu1, err := r.srv.CPU()
		if err != nil {
			return err
		}
		r.res.count(rec)
		rounds = append(rounds, round{
			lat: rec.Lat.Snapshot(), lag: rec.Lag.Snapshot(),
			cpu: cpu1 - cpu0, ops: rec.Ops(), elapsed: rec.Elapsed(),
		})
	}
	after, err := FetchScrape(ctx, r.srv.Base)
	if err != nil {
		return err
	}
	hitRatio := VerdictHitRatio(before, after)
	r.res.note("verdict cache hit ratio %.4f", hitRatio)
	if w.ColdAt && hitRatio > maxColdHitRatio {
		return fmt.Errorf("verdict cache hit ratio %.4f exceeds %.2f: the workload must miss the cache", hitRatio, maxColdHitRatio)
	}
	rss, err := r.srv.PeakRSSMB()
	if err != nil {
		return err
	}

	var lats, lags []obs.HDRSnapshot
	var p50s, p99s, rates []float64
	var cpu time.Duration
	var ops uint64
	for _, rd := range rounds {
		lats, lags = append(lats, rd.lat), append(lags, rd.lag)
		p50s = append(p50s, rd.lat.Quantile(0.5)*1e3)
		p99s = append(p99s, rd.lat.Quantile(0.99)*1e3)
		rates = append(rates, float64(rd.ops)/rd.elapsed.Seconds())
		cpu += rd.cpu
		ops += rd.ops
	}
	// CPU per op over all rounds at once: trustd's GC cycles are long
	// enough that one more or less in a round would move a per-round
	// figure.
	r.res.add("cpu_us_per_op", float64(cpu)/float64(time.Microsecond)/float64(max(ops, 1)), "us")
	r.res.add("rss_mb", rss, "MB")

	all, lag := mergeSnapshots(lats), mergeSnapshots(lags)
	r.res.note("per round: p50 %s ms; p99 %s ms; completed %s ops/s", fmtList(p50s, 3), fmtList(p99s, 2), fmtList(rates, 0))
	r.res.note("all rounds: %d latency samples, p50 %.3f ms, p99 %.3f ms, p999 %.3f ms, generator lag p99 %.3f ms",
		all.Count, all.Quantile(0.5)*1e3, all.Quantile(0.99)*1e3, all.Quantile(0.999)*1e3, lag.Quantile(0.99)*1e3)
	if lag.Quantile(0.99) > 0.005 {
		r.res.note("generator lag p99 %.1f ms exceeds 5 ms: the loader fell behind its schedule", lag.Quantile(0.99)*1e3)
	}
	if w.Reload {
		visible := r.visibleAfter(changes)
		r.res.note("reload_s (change to first response at the new epoch) median %.3f s over %d of %d changes: %s",
			median(visible), len(visible), len(changes), fmtList(visible, 3))
	}
	return nil
}

// visibleAfter returns, for each change trustd answered on, the time from
// the change to the first correct response carrying the new epoch. A
// reload trustd serves epoch 1 until the first change; change k makes
// epoch k+2.
func (r *run) visibleAfter(changes []time.Time) []float64 {
	var out []float64
	for k, at := range changes {
		if seen, ok := r.loader.EpochFirstSeen(uint64(k + 2)); ok {
			out = append(out, seen.Sub(at).Seconds())
		}
	}
	return out
}

// mergeSnapshots adds histograms of the shared HDR layout.
func mergeSnapshots(snaps []obs.HDRSnapshot) obs.HDRSnapshot {
	out := obs.HDRSnapshot{Counts: make([]uint64, obs.HDRNumBuckets())}
	for _, s := range snaps {
		for i, c := range s.Counts {
			out.Counts[i] += c
		}
		out.Count += s.Count
		out.SumSeconds += s.SumSeconds
	}
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fmtList renders xs with prec decimals, space-separated.
func fmtList(xs []float64, prec int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strings.Join(parts, " ")
}
