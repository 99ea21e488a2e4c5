package trustbench

// The knee: the highest offered rate an open-loop workload sustains
// within the service's latency objective. It is found by bisecting
// between zero and the closed-loop capacity in fixed-length open-loop
// steps until the bracket is within 5% of its upper end, then confirming
// the result with a longer step.

import (
	"context"
	"time"
)

// SLO limits a knee step must meet.
const (
	sloP99       = 100 * time.Millisecond // trustd_slo latency threshold
	sloErrorRate = 0.001
	sloLag       = 5 * time.Millisecond // generator lateness, p99
	// sloDrain bounds how long after the last arrival the step may take to
	// complete; a longer tail means the backlog grew during the step.
	sloDrain = 100 * time.Millisecond
)

// Step is one open-loop step's outcome.
type Step struct {
	P99       time.Duration
	ErrorRate float64
	LagP99    time.Duration
	Drain     time.Duration
}

// OK reports whether the step met every limit.
func (s Step) OK() bool {
	return s.P99 <= sloP99 && s.ErrorRate <= sloErrorRate && s.LagP99 <= sloLag && s.Drain <= sloDrain
}

// FindKnee bisects (0, capacity] for the highest rate whose probe passes,
// until hi-lo is within bracket of hi, and returns lo.
func FindKnee(capacity, bracket float64, probe func(rate float64) bool) float64 {
	lo, hi := 0.0, capacity
	for hi-lo > bracket*hi {
		mid := (lo + hi) / 2
		if probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Knee step lengths.
const (
	kneeProbe   = 5 * time.Second  // closed-loop capacity probe
	kneeStep    = 5 * time.Second  // each bisection step
	kneeConfirm = 10 * time.Second // confirmation at the found rate
)

// knee finds the workload's knee on the running trustd and reports it
// with every step taken.
func (r *run) knee(ctx context.Context) error {
	capRec := NewRecorder(false)
	r.offset = r.loader.Closed(ctx, capRec, kneeProbe, r.offset)
	r.res.count(capRec)
	capacity := float64(capRec.Attempted()-capRec.Failed()) / capRec.Elapsed().Seconds()
	r.res.note("closed-loop capacity %.0f requests/s over %s", capacity, kneeProbe)

	// Steps past the knee may shed arrivals or time out; that is what
	// they probe for, so a step's failures go into its note and its error
	// rate, not into the run's failure count.
	step := func(rate float64, d time.Duration) Step {
		rec := NewRecorder(false)
		r.offset = r.loader.Open(ctx, rec, rate, d, r.offset)
		s := Step{
			P99:       time.Duration(rec.Lat.Snapshot().Quantile(0.99) * float64(time.Second)),
			ErrorRate: float64(rec.Failed()) / float64(max(rec.Attempted(), 1)),
			LagP99:    time.Duration(rec.Lag.Snapshot().Quantile(0.99) * float64(time.Second)),
			Drain:     rec.Elapsed() - d,
		}
		r.res.note("knee step %.0f/s for %s: p99 %s, errors %.4f, lag p99 %s, drain %s, ok=%t",
			rate, d, s.P99.Round(time.Microsecond), s.ErrorRate, s.LagP99.Round(time.Microsecond), s.Drain.Round(time.Millisecond), s.OK())
		return s
	}
	knee := FindKnee(capacity, 0.05, func(rate float64) bool { return step(rate, kneeStep).OK() })
	confirmed := false
	for tries := 0; tries < 3 && knee > 0 && !confirmed; tries++ {
		if confirmed = step(knee, kneeConfirm).OK(); !confirmed {
			knee *= 0.95
		}
	}
	if !confirmed {
		r.res.note("knee %.0f/s was not confirmed by a %s step", knee, kneeConfirm)
	}
	r.res.add("knee_rps", knee, "1/s")
	return nil
}
