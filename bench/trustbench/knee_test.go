package trustbench

import (
	"math"
	"testing"
	"time"
)

// TestFindKneeOnQueueingCurve bisects a synthetic M/M/1-shaped latency
// curve, p99(rate) = base / (1 - rate/capacity), whose knee at the 100 ms
// limit is known in closed form.
func TestFindKneeOnQueueingCurve(t *testing.T) {
	const capacity = 6000.0
	for _, base := range []float64{0.002, 0.02, 0.08} {
		knee := capacity * (1 - base/sloP99.Seconds())
		probes := 0
		got := FindKnee(capacity, 0.05, func(rate float64) bool {
			probes++
			p99 := time.Duration(base / (1 - rate/capacity) * float64(time.Second))
			return Step{P99: p99}.OK()
		})
		if got > knee || got < 0.95*knee {
			t.Errorf("base %.3f s: knee %.0f/s, want within 5%% below %.0f/s", base, got, knee)
		}
		// Each probe halves the bracket, which must shrink from capacity to
		// 5% of a top no lower than the knee.
		if limit := int(math.Ceil(math.Log2(capacity / (0.05 * knee)))); probes > limit {
			t.Errorf("base %.3f s: %d probes, want at most %d", base, probes, limit)
		}
	}
}

func TestStepLimits(t *testing.T) {
	ok := Step{P99: 50 * time.Millisecond, ErrorRate: 0.0005, LagP99: 2 * time.Millisecond, Drain: 10 * time.Millisecond}
	if !ok.OK() {
		t.Fatalf("%+v fails, want it within every limit", ok)
	}
	for name, mutate := range map[string]func(*Step){
		"p99":        func(s *Step) { s.P99 = 101 * time.Millisecond },
		"error rate": func(s *Step) { s.ErrorRate = 0.002 },
		"lag":        func(s *Step) { s.LagP99 = 6 * time.Millisecond },
		"backlog":    func(s *Step) { s.Drain = time.Second },
	} {
		s := ok
		mutate(&s)
		if s.OK() {
			t.Errorf("%s over its limit passes", name)
		}
	}
}
