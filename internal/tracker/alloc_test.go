package tracker

import (
	"fmt"
	"runtime"
	"testing"
)

// TestNoChangeRescanAllocs: on an 820-directory tree (the default corpus's
// shape: 10 providers × 82 releases) watched through inotify, a poll that
// finds nothing changed allocates no more than the scan's own listing —
// the tracker's change check is keyed by (provider, version), not by a
// string built per directory.
func TestNoChangeRescanAllocs(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the idle scan is allocation-free only under inotify, which is linux-only")
	}
	if testing.Short() {
		t.Skip("820-directory tree skipped in -short mode")
	}
	root := t.TempDir()
	entries := trusted(t, 0)
	for p := 0; p < 10; p++ {
		for v := 0; v < 82; v++ {
			writePEM(t, root, fmt.Sprintf("P%02d", p), fmt.Sprintf("v%03d", v), entries)
		}
	}
	src := newWatchedSource(t, root, 0)
	trk, err := New(Config{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := trk.Rescan(); err != nil || n != 820 {
		t.Fatalf("initial rescan = (%d, %v), want 820 snapshots", n, err)
	}
	if st := src.SourceStats(); !st.Inotify {
		t.Skipf("inotify unavailable (%s); a polling scan stats every directory", st.PollReason)
	}
	const budget = 2
	allocs := testing.AllocsPerRun(20, func() {
		if n, err := trk.Rescan(); err != nil || n != 0 {
			t.Fatalf("idle rescan = (%d, %v)", n, err)
		}
	})
	t.Logf("no-change rescan over 820 directories: %.0f allocs", allocs)
	if allocs > budget {
		t.Fatalf("no-change rescan allocates %.0f times, budget %d", allocs, budget)
	}
}
