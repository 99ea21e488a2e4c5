package main

import (
	"fmt"
	"math"
	"sort"
)

// minPairs is the fewest parent/change pairs the rule accepts.
const minPairs = 10

// Stats summarises one side's runs of one metric.
type Stats struct {
	Median, Q1, Q3 float64
	Min, Max       float64
}

// IQR is the distance between the quartiles.
func (s Stats) IQR() float64 { return s.Q3 - s.Q1 }

// Spread is the IQR as a share of the median.
func (s Stats) Spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return s.IQR() / math.Abs(s.Median)
}

// Summarize computes the median and quartiles of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), the
// definition the benchmark's bounds were set with. xs needs two values.
func Summarize(xs []float64) Stats {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		// Position i·(n+1)/4, 1-based, clamped to [1, n-1], interpolated
		// with exact integer arithmetic as Python does.
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return Stats{Median: med, Q1: q(1), Q3: q(3), Min: s[0], Max: s[n-1]}
}

// Verdicts a row can get.
const (
	Gain        = "gain"
	Regression  = "regression"
	Unresolved  = "unresolved"
	WithinBound = "within bound"
	TooFew      = "too few pairs"
)

// Row is the comparison of one metric on one workload.
type Row struct {
	Workload, Metric, Unit string
	Better                 string  // "lower" or "higher"
	Bound                  float64 // share of the parent median
	Pairs                  int
	Parent, Change         Stats
	Wins, Losses           int // pairs the change won and lost; ties count for neither
	// FailedParent and FailedChange are the failed operations summed over
	// each side's runs.
	FailedParent, FailedChange uint64
	Verdict                    string
}

// Pair is one parent run and one change run of the same seed.
type Pair struct{ Parent, Change float64 }

// Judge applies the rule to one (workload, metric):
//
//   - a gain needs at least ten pairs, the change winning at least nine in
//     ten of them, its median better than the parent's by more than the
//     parent's interquartile range, and no more failed operations;
//   - otherwise, when either side's spread (IQR over median) exceeds the
//     bound, the row is unresolved, unless every change run beat every
//     parent run;
//   - otherwise a change median worse than the parent's by more than the
//     bound is a regression, and anything else is within bound.
func Judge(row Row, pairs []Pair) Row {
	row.Pairs = len(pairs)
	if len(pairs) < 2 {
		row.Verdict = TooFew
		return row
	}
	better := func(a, b float64) bool { // a better than b
		if row.Better == "higher" {
			return a > b
		}
		return a < b
	}
	var ps, cs []float64
	for _, p := range pairs {
		ps, cs = append(ps, p.Parent), append(cs, p.Change)
		switch {
		case better(p.Change, p.Parent):
			row.Wins++
		case better(p.Parent, p.Change):
			row.Losses++
		}
	}
	row.Parent, row.Change = Summarize(ps), Summarize(cs)
	if len(pairs) < minPairs {
		row.Verdict = TooFew
		return row
	}
	worst, best := row.Change.Max, row.Parent.Min // lower is better
	if row.Better == "higher" {
		worst, best = row.Change.Min, row.Parent.Max
	}
	allBetter := better(worst, best)
	switch {
	case row.Wins*10 >= 9*len(pairs) &&
		better(row.Change.Median, row.Parent.Median) &&
		math.Abs(row.Change.Median-row.Parent.Median) > row.Parent.IQR() &&
		row.FailedChange <= row.FailedParent:
		row.Verdict = Gain
	case (row.Parent.Spread() > row.Bound || row.Change.Spread() > row.Bound) && !allBetter:
		row.Verdict = Unresolved
	case better(row.Parent.Median, row.Change.Median) &&
		math.Abs(row.Change.Median-row.Parent.Median) > row.Bound*math.Abs(row.Parent.Median):
		row.Verdict = Regression
	default:
		row.Verdict = WithinBound
	}
	return row
}

// Ratio is the change median over the parent median.
func (r Row) Ratio() float64 { return r.Change.Median / r.Parent.Median }

// String renders the row with every ratio next to its base.
func (r Row) String() string {
	return fmt.Sprintf("%-12s %-14s parent %s  change %s  change/parent %.3f (base: parent median %.4g %s)  wins %d/%d, losses %d  spread %.3f/%.3f (bound %.2f)  failed %d/%d  %s",
		r.Workload, r.Metric, r.Parent.fmt(), r.Change.fmt(), r.Ratio(), r.Parent.Median, r.Unit,
		r.Wins, r.Pairs, r.Losses, r.Parent.Spread(), r.Change.Spread(), r.Bound, r.FailedParent, r.FailedChange, r.Verdict)
}

func (s Stats) fmt() string { return fmt.Sprintf("%.4g [%.4g %.4g]", s.Median, s.Q1, s.Q3) }
