package trustbench

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestScheduleKeepsRateThroughStalls stalls the generator itself for 200 ms
// twice. The schedule must not stretch: the offered rate over the whole
// run stays within 2% of the target, and every arrival the stall delayed
// is seen late, not skipped.
func TestScheduleKeepsRateThroughStalls(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion; the race detector slows the generator")
	}
	const (
		rate  = 1000.0
		n     = 2000
		stall = 200 * time.Millisecond
	)
	late := 0
	start := time.Now()
	fired := schedule(context.Background(), start, rate, n, func(i int, due time.Time) {
		if time.Since(due) > 50*time.Millisecond {
			late++
		}
		if i == 500 || i == 1200 {
			time.Sleep(stall)
		}
	})
	elapsed := time.Since(start)
	if fired != n {
		t.Fatalf("fired %d of %d arrivals", fired, n)
	}
	offered := float64(n) / elapsed.Seconds()
	if offered < rate*0.98 || offered > rate*1.02 {
		t.Errorf("offered %.1f/s over %s, want %.0f/s ±2%%", offered, elapsed, rate)
	}
	// Each stall delays the ~200 arrivals due during it by more than 50 ms
	// for about its first 150 ms.
	if late < 2*120 {
		t.Errorf("%d arrivals seen more than 50 ms late, want at least %d", late, 2*120)
	}
}

func TestScheduleStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	fired := schedule(ctx, time.Now(), 100, 1000, func(i int, _ time.Time) {
		if i == 9 {
			cancel()
		}
	})
	if fired != 10 {
		t.Errorf("fired %d arrivals after cancelling at the tenth, want 10", fired)
	}
}

// testFixture is a one-request pool whose responses always pass.
func testFixture() *Fixture {
	return &Fixture{
		gens: []*generation{{}},
		Pool: []*Request{{
			Class: ClassRead, Method: http.MethodGet, Path: "/x", Ops: 1,
			validate: func(*generation, []byte) error { return nil },
		}},
	}
}

// TestOpenLoopThroughServerStalls stalls every 250th response for 200 ms.
// Arrivals keep their schedule (the server's stall does not slow the
// generator), latency counts from the scheduled arrival so the stall
// shows in the tail, and every request is accounted for.
func TestOpenLoopThroughServerStalls(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion; the race detector slows the generator")
	}
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if hits.Add(1)%250 == 0 {
			time.Sleep(200 * time.Millisecond)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	l, err := NewLoader(srv.URL, runtime.NumCPU(), testFixture())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const rate = 500.0
	rec := NewRecorder(true)
	l.Open(context.Background(), rec, rate, 2*time.Second, 0)

	if rec.Attempted() != 1000 || rec.Failed() != 0 || rec.Ops() != 1000 {
		t.Fatalf("attempted %d failed %d ops %d, want 1000/0/1000: %v", rec.Attempted(), rec.Failed(), rec.Ops(), rec.Errors())
	}
	spans := rec.Spans()
	first, last := spans[0].Sent, spans[0].Sent
	for _, s := range spans {
		if s.Sent.Before(first) {
			first = s.Sent
		}
		if s.Sent.After(last) {
			last = s.Sent
		}
	}
	offered := float64(len(spans)-1) / last.Sub(first).Seconds()
	if offered < rate*0.98 || offered > rate*1.02 {
		t.Errorf("offered %.1f/s, want %.0f/s ±2%%", offered, rate)
	}
	// Four stalled responses in 1000 sit above the 99.9th percentile.
	if p999 := rec.Lat.Snapshot().Quantile(0.999); p999 < 0.1 {
		t.Errorf("latency p99.9 %.1f ms, want the 200 ms stalls in the tail", p999*1e3)
	}
	if lag := rec.Lag.Snapshot(); lag.Count != 1000 {
		t.Errorf("lag recorded for %d arrivals, want 1000", lag.Count)
	}
}

func TestNewLoaderRefusesMoreConnsThanCPUs(t *testing.T) {
	if _, err := NewLoader("http://127.0.0.1:1", runtime.NumCPU()+1, testFixture()); err == nil {
		t.Error("NewLoader accepted more connections than nproc")
	}
}
