package load

// Report is the JSON artifact a run produces (BENCH_10.json in CI). The
// latency quantiles come from the same HDR log-linear buckets trustd
// exports on /metrics/prometheus — BucketBoundsSeconds restates the
// shared layout so a consumer can line client and server histograms up
// bucket-for-bucket.

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ClassReport is one workload class's results.
type ClassReport struct {
	Issued    uint64 `json:"issued"`
	Completed uint64 `json:"completed"`
	// Shed counts arrivals dropped at the in-flight cap; they were never
	// sent, so they appear in no latency bucket.
	Shed      uint64            `json:"shed"`
	Transport uint64            `json:"transport_errors"`
	Status    map[string]uint64 `json:"status,omitempty"` // "2xx", "4xx", ...

	// Latency from scheduled arrival to completion (seconds).
	P50    float64 `json:"p50_s"`
	P90    float64 `json:"p90_s"`
	P99    float64 `json:"p99_s"`
	P999   float64 `json:"p999_s"`
	MeanS  float64 `json:"mean_s"`
	Counts []int64 `json:"bucket_counts,omitempty"`
}

// Report is the whole run's outcome.
type Report struct {
	Schema string `json:"schema"` // "trustd-loadgen/1"

	TargetRPS   float64 `json:"target_rps"`
	DurationS   float64 `json:"duration_s"`
	Requested   int     `json:"requested"`
	Issued      int     `json:"issued"`
	OfferedRPS  float64 `json:"offered_rps"`   // issued / issue wall time
	AchievedRPS float64 `json:"completed_rps"` // completed / total wall time
	Seed        uint64  `json:"seed"`

	Classes map[string]*ClassReport `json:"classes"`

	// BucketBoundsSeconds is the shared HDR layout (69 finite bounds,
	// +Inf implicit) — identical to the server's le= labels.
	BucketBoundsSeconds []float64 `json:"bucket_bounds_seconds"`

	// Generations maps each observed X-Rootpack-Hash to how many
	// responses it served; two keys here means the run crossed a reload.
	Generations             map[string]uint64 `json:"generations"`
	MixedGenerationVerdicts uint64            `json:"mixed_generation_verdicts"`

	WatchStreams        int    `json:"watch_streams"`
	WatchEventsReceived uint64 `json:"watch_events_received"`
	Watch5xx            uint64 `json:"watch_5xx"`
	WatchStreamErrors   uint64 `json:"watch_stream_errors"`
}

var statusClassNames = [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

func (r *Runner) buildReport(requested, issued int, interval time.Duration, issueWall, totalWall time.Duration) *Report {
	rep := &Report{
		Schema:                  "trustd-loadgen/1",
		TargetRPS:               r.opts.RPS,
		DurationS:               r.opts.Duration.Seconds(),
		Requested:               requested,
		Issued:                  issued,
		Seed:                    r.opts.Seed,
		Classes:                 map[string]*ClassReport{},
		BucketBoundsSeconds:     obs.HDRBounds(),
		Generations:             map[string]uint64{},
		MixedGenerationVerdicts: r.mixed.Load(),
		WatchStreams:            r.opts.WatchStreams,
		WatchEventsReceived:     r.watchEvents.Load(),
		Watch5xx:                r.watch5xx.Load(),
		WatchStreamErrors:       r.watchErrs.Load(),
	}
	if s := issueWall.Seconds(); s > 0 {
		rep.OfferedRPS = float64(issued) / s
	}
	var completed uint64
	for _, c := range classOrder {
		cs := r.classes[c]
		if cs.issued.Load() == 0 {
			continue
		}
		snap := cs.hist.Snapshot()
		cr := &ClassReport{
			Issued:    cs.issued.Load(),
			Completed: cs.completed.Load(),
			Shed:      cs.shed.Load(),
			Transport: cs.transport.Load(),
			Status:    map[string]uint64{},
			P50:       snap.Quantile(0.50),
			P90:       snap.Quantile(0.90),
			P99:       snap.Quantile(0.99),
			P999:      snap.Quantile(0.999),
			MeanS:     snap.Mean(),
		}
		for i, name := range statusClassNames {
			if v := cs.status[i].Load(); v > 0 {
				cr.Status[name] = v
			}
		}
		cr.Counts = make([]int64, len(snap.Counts))
		for i, v := range snap.Counts {
			cr.Counts[i] = int64(v)
		}
		completed += cr.Completed
		rep.Classes[string(c)] = cr
	}
	if s := totalWall.Seconds(); s > 0 {
		rep.AchievedRPS = float64(completed) / s
	}
	r.generations.Range(func(k, v any) bool {
		rep.Generations[k.(string)] = v.(*atomic.Uint64).Load()
		return true
	})
	return rep
}

// Total5xx sums server-error responses across classes plus watch streams.
func (rep *Report) Total5xx() uint64 {
	var n uint64
	for _, cr := range rep.Classes {
		n += cr.Status["5xx"]
	}
	return n + rep.Watch5xx
}

// TotalTransportErrors sums client/transport failures across classes.
func (rep *Report) TotalTransportErrors() uint64 {
	var n uint64
	for _, cr := range rep.Classes {
		n += cr.Transport
	}
	return n
}

// TotalShed sums arrivals dropped at the in-flight cap.
func (rep *Report) TotalShed() uint64 {
	var n uint64
	for _, cr := range rep.Classes {
		n += cr.Shed
	}
	return n
}

// ClassNames lists the classes present in deterministic order.
func (rep *Report) ClassNames() []string {
	names := make([]string, 0, len(rep.Classes))
	for name := range rep.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
