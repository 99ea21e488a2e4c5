package tracker

// Tracing and metrics tests: the rescan pipeline's trace anatomy, the
// no-change-poll discard, and the metric families the tracker declares in
// the registry the serving layer includes.

import (
	"io"
	"log/slog"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// metric reads one series from the tracker's registry, 0 when absent.
func metric(trk *Tracker, name string) float64 {
	v, _ := trk.Metrics().Value(name)
	return v
}

func quietTracer() *obs.Tracer {
	return obs.NewTracer(obs.Options{
		SlowThreshold: -1,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
}

// TestRescanTraceAnatomy runs a cold start plus an incremental reload and
// checks each produced one trace with the pipeline's phase spans —
// scan → load (with catalog children) → swap → classify.
func TestRescanTraceAnatomy(t *testing.T) {
	root := t.TempDir()
	seedTree(t, root)

	tr := quietTracer()
	trk := newTestTracker(t, root, func(c *Config) {
		c.Tracer = tr
		c.OnReload = func(*store.Database) {}
	})
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	recs := tr.Recent(0)
	if len(recs) != 1 {
		t.Fatalf("traces after cold start = %d, want 1", len(recs))
	}
	names := map[string]int{}
	for _, sp := range recs[0].Spans {
		names[sp.Name]++
	}
	for _, want := range []string{"tracker.rescan", "tracker.scan", "tracker.load", "tracker.swap", "tracker.classify"} {
		if names[want] == 0 {
			t.Errorf("cold-start trace missing span %q (got %v)", want, names)
		}
	}
	// The cold start parses natively (no sidecar yet) and then compiles one.
	if names["catalog.parse"] == 0 {
		t.Errorf("cold-start trace has no catalog.parse span: %v", names)
	}
	if names["archive.compile"] == 0 {
		t.Errorf("cold-start trace has no archive.compile span: %v", names)
	}

	// Incremental change: one provider updates → splice reload trace.
	writePEM(t, root, "Debian", "2020-05-01", trusted(t, 1, 2))
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	recs = tr.Recent(0)
	if len(recs) != 2 {
		t.Fatalf("traces after incremental reload = %d, want 2", len(recs))
	}
	splice := recs[0] // newest first
	var mode string
	for _, sp := range splice.Spans {
		if sp.Name == "tracker.load" {
			for _, a := range sp.Attrs {
				if a.Key == "mode" {
					mode = a.Value
				}
			}
		}
	}
	if mode != "splice" {
		t.Errorf("incremental reload load mode = %q, want splice", mode)
	}
}

// TestNoChangePollDiscardsTrace asserts idle polls leave no trace — the
// ring must hold work, not heartbeats.
func TestNoChangePollDiscardsTrace(t *testing.T) {
	root := t.TempDir()
	seedTree(t, root)
	tr := quietTracer()
	trk := newTestTracker(t, root, func(c *Config) { c.Tracer = tr })
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if n, err := trk.Rescan(); err != nil || n != 0 {
			t.Fatalf("idle rescan = (%d, %v)", n, err)
		}
	}
	if got := len(tr.Recent(0)); got != 1 {
		t.Fatalf("traces after idle polls = %d, want 1 (idle polls must discard)", got)
	}
	if rescans, reloads := metric(trk, "trustd_tracker_rescans_total"), metric(trk, "trustd_tracker_reloads_total"); rescans != 4 || reloads != 1 {
		t.Errorf("%v rescans / %v reloads, want 4 / 1", rescans, reloads)
	}
}

// TestTrackerMetricsLintClean holds the tracker's metric families to the
// same lint bar as the serving layer's.
func TestTrackerMetricsLintClean(t *testing.T) {
	root := t.TempDir()
	seedTree(t, root)
	trk := newTestTracker(t, root, nil)
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	fams := trk.Metrics().Families()
	if got := metric(trk, "trustd_tracker_rescans_total"); got != 1 {
		t.Errorf("rescans = %v", got)
	}
	if metric(trk, "trustd_tracker_events_emitted_total") == 0 {
		t.Error("no events counted after history replay")
	}
	if metric(trk, "trustd_tracker_last_reload_seconds") <= 0 {
		t.Error("last reload duration not recorded")
	}
	if digested, statted := metric(trk, "trustd_tracker_dirs_digested_total"), metric(trk, "trustd_tracker_dirs_statted_total"); digested != 3 || statted != 3 {
		t.Errorf("digested %v, statted %v directories; want the tree's 3 each", digested, statted)
	}
	if want := map[bool]float64{true: 1, false: 0}[runtime.GOOS == "linux"]; metric(trk, "trustd_tracker_inotify") != want {
		t.Errorf("trustd_tracker_inotify = %v, want %v", metric(trk, "trustd_tracker_inotify"), want)
	}
	var sb strings.Builder
	if err := obs.WriteExposition(&sb, fams); err != nil {
		t.Fatal(err)
	}
	if problems := obs.LintExposition(strings.NewReader(sb.String())); len(problems) != 0 {
		t.Fatalf("lint: %v", problems)
	}
	if !strings.Contains(sb.String(), "# TYPE trustd_tracker_reloads_total counter") {
		t.Errorf("exposition missing reloads family:\n%s", sb.String())
	}
}

// TestNilTracerIsInert proves the tracer hook is fully optional.
func TestNilTracerIsInert(t *testing.T) {
	root := t.TempDir()
	seedTree(t, root)
	trk := newTestTracker(t, root, nil) // no tracer
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	if got := metric(trk, "trustd_tracker_reloads_total"); got != 1 {
		t.Errorf("reloads without tracer = %v, want 1", got)
	}
}
