package main

import (
	"math"
	"testing"
)

// TestSummarizeMatchesPython checks the quartiles against values printed
// by Python's statistics.quantiles(xs, n=4).
func TestSummarizeMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75}, // Python extrapolates below two points
		{[]float64{1.2, 0.9, 1.1, 1.0, 1.05, 0.95, 1.3, 1.15, 1.0, 0.98, 1.01}, 0.98, 1.01, 1.15},
	} {
		s := Summarize(tc.xs)
		if !near(s.Q1, tc.q1) || !near(s.Median, tc.med) || !near(s.Q3, tc.q3) {
			t.Errorf("Summarize(%v) = q1 %v median %v q3 %v, want %v %v %v", tc.xs, s.Q1, s.Median, s.Q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// pairsOf builds n pairs whose parent runs sit around base with a small
// jitter and whose change runs are the parent scaled by factor, with the
// change losing the pairs listed in lose.
func pairsOf(n int, base, factor float64, lose ...int) []Pair {
	jitter := []float64{0, 0.004, -0.003, 0.002, -0.001, 0.003, -0.004, 0.001, -0.002, 0.0}
	out := make([]Pair, n)
	for i := range out {
		p := base * (1 + jitter[i%len(jitter)])
		out[i] = Pair{Parent: p, Change: p * factor}
	}
	for _, i := range lose {
		out[i].Change = out[i].Parent * 1.01
	}
	return out
}

func TestJudge(t *testing.T) {
	lower := Row{Workload: "mixed", Metric: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.1}
	higher := Row{Workload: "batch", Metric: "load.ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	noisy := func(n int) []Pair { // parent and change spread ±30% around 1
		out := make([]Pair, n)
		for i := range out {
			out[i] = Pair{Parent: 0.7 + 0.6*float64(i)/float64(n-1), Change: 0.7 + 0.6*float64((i+3)%n)/float64(n-1)}
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		row   Row
		pairs []Pair
		want  string
	}{
		{"clear gain, 10/10", lower, pairsOf(10, 1, 0.9), Gain},
		{"gain with one loss, 9/10", lower, pairsOf(10, 1, 0.9, 4), Gain},
		{"two losses, 8/10", lower, pairsOf(10, 1, 0.9, 4, 7), WithinBound},
		{"better but inside the parent's IQR", lower, pairsOf(10, 1, 0.9999), WithinBound},
		{"gain on a higher-is-better metric", higher, pairsOf(10, 1000, 1.2), Gain},
		{"regression beyond the bound", lower, pairsOf(10, 1, 1.2), Regression},
		{"worse but within the bound", lower, pairsOf(10, 1, 1.05), WithinBound},
		{"regression on a higher-is-better metric", higher, pairsOf(10, 1000, 0.8), Regression},
		{"spread beyond the bound", lower, noisy(10), Unresolved},
		{"nine pairs", lower, pairsOf(9, 1, 0.9), TooFew},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := Judge(tc.row, tc.pairs); got.Verdict != tc.want {
				t.Errorf("verdict %q, want %q (%s)", got.Verdict, tc.want, got)
			}
		})
	}
}

// TestJudgeFailuresBlockGain: a faster change that fails more operations
// than the parent claims no gain.
func TestJudgeFailuresBlockGain(t *testing.T) {
	row := Row{Metric: "cpu_us_per_op", Better: "lower", Bound: 0.1, FailedParent: 0, FailedChange: 3}
	if got := Judge(row, pairsOf(10, 1, 0.8)); got.Verdict == Gain {
		t.Errorf("verdict %q with more failures on the change", got.Verdict)
	}
}

// TestJudgeAllBetterResolvesSpread: when every change run beats every
// parent run, a wide spread does not make the row unresolved.
func TestJudgeAllBetterResolvesSpread(t *testing.T) {
	var pairs []Pair
	for i := 0; i < 10; i++ {
		p := 10 + float64(i) // parent 10..19: spread far above 10%
		pairs = append(pairs, Pair{Parent: p, Change: 9.5 - float64(i)/10})
	}
	row := Judge(Row{Metric: "setup_s", Better: "lower", Bound: 0.1}, pairs)
	if row.Verdict == Unresolved {
		t.Errorf("verdict %q although every change run beat every parent run", row.Verdict)
	}
	if row.Ratio() >= 1 {
		t.Errorf("ratio %.3f, want below 1", row.Ratio())
	}
}
