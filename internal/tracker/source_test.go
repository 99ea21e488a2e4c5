package tracker

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
)

// newPollingDirSource is the reference the dirty set is held to: a source
// that stat-walks the whole tree on every scan.
func newPollingDirSource(root string, settle time.Duration) *DirSource {
	s := NewDirSource(root, settle)
	s.poll = true
	return s
}

// newWatchedSource returns an inotify-backed source (polling off Linux)
// that is closed when the test ends.
func newWatchedSource(t *testing.T, root string, settle time.Duration) *DirSource {
	t.Helper()
	src := NewDirSource(root, settle)
	t.Cleanup(func() { src.Close() })
	return src
}

// sameScan fails unless the dirty-set scan equals the full stat walk.
func sameScan(t *testing.T, step string, watched, polled *DirSource) {
	t.Helper()
	got, err := watched.Scan()
	if err != nil {
		t.Fatalf("%s: watched scan: %v", step, err)
	}
	want, err := polled.Scan()
	if err != nil {
		t.Fatalf("%s: polled scan: %v", step, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: watched scan has %d dirs, full walk %d\nwatched %v\nwalk    %v", step, len(got), len(want), keysOf(got), keysOf(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key() != w.Key() || g.Dir != w.Dir || g.Stamp != w.Stamp || !g.Date.Equal(w.Date) {
			t.Fatalf("%s: dir %d: watched %+v, full walk %+v", step, i, g, w)
		}
	}
}

func keysOf(dirs []catalog.VersionDir) []string {
	out := make([]string, len(dirs))
	for i, d := range dirs {
		out[i] = d.Key()
	}
	return out
}

// TestDirSourceMatchesFullWalk is the dirty set's equivalence property:
// after every step of a random sequence of tree edits — files written,
// grown, re-timed and removed, nested and doubly nested directories,
// version and provider directories created, renamed, moved in and out of
// the tree and deleted, stray files beside them — the inotify-driven scan
// reports exactly what a full stat walk of the tree reports.
func TestDirSourceMatchesFullWalk(t *testing.T) {
	root, outside := t.TempDir(), t.TempDir()
	watched := newWatchedSource(t, root, 0)
	polled := newPollingDirSource(root, 0)
	rng := rand.New(rand.NewSource(1))

	prov := func() string { return fmt.Sprintf("P%d", rng.Intn(4)) }
	version := func() string { return fmt.Sprintf("v%d", rng.Intn(4)) }
	path := func(parts ...string) string { return filepath.Join(append([]string{root}, parts...)...) }
	write := func(p string) {
		os.MkdirAll(filepath.Dir(p), 0o755)
		os.WriteFile(p, make([]byte, 1+rng.Intn(64)), 0o644)
	}
	stamp := func() time.Time { return time.Unix(1_600_000_000+rng.Int63n(1e8), rng.Int63n(1e9)) }
	var outsideN int

	ops := []struct {
		name string
		do   func()
	}{
		{"write file", func() { write(path(prov(), version(), fmt.Sprintf("f%d.pem", rng.Intn(3)))) }},
		{"append", func() {
			f, err := os.OpenFile(path(prov(), version(), "f0.pem"), os.O_APPEND|os.O_WRONLY, 0)
			if err == nil {
				f.Write([]byte("more"))
				f.Close()
			}
		}},
		{"retime file", func() { os.Chtimes(path(prov(), version(), "f1.pem"), stamp(), stamp()) }},
		{"remove file", func() { os.Remove(path(prov(), version(), fmt.Sprintf("f%d.pem", rng.Intn(3)))) }},
		{"nested file", func() { write(path(prov(), version(), "certs", fmt.Sprintf("c%d.cer", rng.Intn(2)))) }},
		{"retime nested dir", func() { os.Chtimes(path(prov(), version(), "certs"), stamp(), stamp()) }},
		{"doubly nested dir", func() { os.MkdirAll(path(prov(), version(), "certs", fmt.Sprintf("d%d", rng.Intn(2))), 0o755) }},
		{"doubly nested file", func() { write(path(prov(), version(), "certs", "d0", "deep.bin")) }},
		{"empty version dir", func() { os.MkdirAll(path(prov(), version()), 0o755) }},
		{"rename version", func() { os.Rename(path("P0", version()), path("P0", version())) }},
		{"move version out", func() {
			outsideN++
			os.Rename(path(prov(), version()), filepath.Join(outside, fmt.Sprint(outsideN)))
		}},
		{"move version in", func() {
			staged := filepath.Join(outside, "staged")
			os.RemoveAll(staged)
			write(filepath.Join(staged, "f0.pem"))
			write(filepath.Join(staged, "certs", "c0.cer"))
			os.Chtimes(filepath.Join(staged, "f0.pem"), stamp(), stamp())
			os.Rename(staged, path(prov(), version()))
		}},
		{"write in moved-out dir", func() {
			if outsideN > 0 {
				write(filepath.Join(outside, fmt.Sprint(1+rng.Intn(outsideN)), "f0.pem"))
			}
		}},
		{"remove version", func() { os.RemoveAll(path(prov(), version())) }},
		{"remove provider", func() {
			if rng.Intn(3) == 0 {
				os.RemoveAll(path(prov()))
			}
		}},
		{"rename provider", func() { os.Rename(path(prov()), path(prov())) }}, // onto an empty one too
		{"move provider out", func() {
			outsideN++
			os.Rename(path(prov()), filepath.Join(outside, fmt.Sprint(outsideN)))
		}},
		{"move provider in", func() {
			staged := filepath.Join(outside, "staged-provider")
			os.RemoveAll(staged)
			write(filepath.Join(staged, "v0", "f0.pem"))
			write(filepath.Join(staged, "v1", "certs", "c0.cer"))
			os.Rename(staged, path(prov()))
		}},
		{"empty provider", func() { os.Mkdir(path(prov()), 0o755) }},
		{"version onto empty version", func() {
			empty := path(prov(), "v9")
			if os.Mkdir(empty, 0o755) == nil {
				sameScan(t, "empty version dir v9", watched, polled)
				os.Rename(path(prov(), version()), empty)
			}
		}},
		{"stray files", func() {
			write(path(".rootpack"))
			os.MkdirAll(path(prov()), 0o755)
			write(path(prov(), "README"))
		}},
		{"version dir becomes file", func() {
			p := path(prov(), version())
			if rng.Intn(4) == 0 {
				os.RemoveAll(p)
				write(p)
			}
		}},
	}

	sameScan(t, "empty tree", watched, polled)
	for step := 0; step < 400; step++ {
		op := ops[rng.Intn(len(ops))]
		op.do()
		sameScan(t, fmt.Sprintf("step %d (%s)", step, op.name), watched, polled)
	}
	if runtime.GOOS == "linux" && !watched.SourceStats().Inotify {
		t.Fatalf("watched source fell back to polling: %s", watched.SourceStats().PollReason)
	}
}

// TestDirSourceStatsOnlyChangedDirs: with inotify, a scan after one change
// re-stats that directory alone, and an idle scan none — where a full walk
// stats every directory every time.
func TestDirSourceStatsOnlyChangedDirs(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("inotify is linux-only")
	}
	root := t.TempDir()
	for i := 0; i < 30; i++ {
		writePEM(t, root, "NSS", fmt.Sprintf("2020-01-%02d", i+1), trusted(t, 0))
	}
	src := newWatchedSource(t, root, 0)
	if _, err := src.Scan(); err != nil {
		t.Fatal(err)
	}
	statted := func() uint64 { return src.SourceStats().DirsStatted }
	base := statted()
	if base != 30 {
		t.Fatalf("first scan statted %d dirs, want all 30", base)
	}
	if _, err := src.Scan(); err != nil {
		t.Fatal(err)
	}
	if d := statted() - base; d != 0 {
		t.Fatalf("idle scan statted %d dirs, want 0", d)
	}
	writePEM(t, root, "NSS", "2020-01-07", trusted(t, 0, 1))
	dirs, err := src.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if d := statted() - base; d != 1 {
		t.Fatalf("scan after one change statted %d dirs, want 1", d)
	}
	if len(dirs) != 30 {
		t.Fatalf("scan reports %d dirs, want 30", len(dirs))
	}
	if st := src.SourceStats(); !st.Inotify || st.Watches != 32 {
		t.Fatalf("stats %+v, want inotify with 32 watches (root, NSS, 30 versions)", st)
	}

	// A directory moved out of the tree loses its watch, so writes to it
	// there cost later scans nothing.
	moved := filepath.Join(t.TempDir(), "moved")
	if err := os.Rename(filepath.Join(root, "NSS", "2020-01-07"), moved); err != nil {
		t.Fatal(err)
	}
	if dirs, err = src.Scan(); err != nil || len(dirs) != 29 {
		t.Fatalf("scan after move-out: %d dirs, %v; want 29", len(dirs), err)
	}
	if st := src.SourceStats(); st.Watches != 31 {
		t.Fatalf("%d watches after move-out, want 31", st.Watches)
	}
	base = statted()
	if err := os.WriteFile(filepath.Join(moved, "tls-ca-bundle.pem"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Scan(); err != nil {
		t.Fatal(err)
	}
	if d := statted() - base; d != 0 {
		t.Fatalf("write outside the tree cost %d stats, want 0", d)
	}
}

// TestDirSourceOverflowRecovers: when more events arrive than the kernel
// queues, the ones lost include a new directory's creation; the overflow
// turns the next scan into a full walk that still finds it.
func TestDirSourceOverflowRecovers(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("inotify is linux-only")
	}
	raw, err := os.ReadFile("/proc/sys/fs/inotify/max_queued_events")
	if err != nil {
		t.Skip("inotify queue size unknown")
	}
	var limit int
	fmt.Sscan(strings.TrimSpace(string(raw)), &limit)
	if limit <= 0 || limit > 1<<17 {
		t.Skipf("inotify queue of %d events is too long to fill quickly", limit)
	}
	root := t.TempDir()
	writePEM(t, root, "NSS", "2020-01-01", trusted(t, 0))
	writePEM(t, root, "NSS", "2020-02-01", trusted(t, 0))
	watched := newWatchedSource(t, root, 0)
	if _, err := watched.Scan(); err != nil {
		t.Fatal(err)
	}
	// Alternating targets keep the kernel from merging the events.
	a := filepath.Join(root, "NSS", "2020-01-01", "tls-ca-bundle.pem")
	b := filepath.Join(root, "NSS", "2020-02-01", "tls-ca-bundle.pem")
	for i := 0; i <= limit; i++ {
		at := time.Unix(1_600_000_000+int64(i), 0)
		target := a
		if i%2 == 1 {
			target = b
		}
		if err := os.Chtimes(target, at, at); err != nil {
			t.Fatal(err)
		}
	}
	writePEM(t, root, "Debian", "2020-03-01", trusted(t, 1))
	sameScan(t, "after overflow", watched, newPollingDirSource(root, 0))
	if st := watched.SourceStats(); st.Overflows == 0 || !st.Inotify {
		t.Fatalf("stats %+v, want an overflow and inotify still in use", st)
	}
	// The full walk re-established the watches: later changes are seen.
	writePEM(t, root, "Debian", "2020-04-01", trusted(t, 1))
	sameScan(t, "after recovery", watched, newPollingDirSource(root, 0))
}

// TestDirSourceCloseFallsBackToPolling: a closed source keeps scanning
// correctly, by walking.
func TestDirSourceCloseFallsBackToPolling(t *testing.T) {
	root := t.TempDir()
	writePEM(t, root, "NSS", "2020-01-01", trusted(t, 0))
	src := NewDirSource(root, 0)
	if _, err := src.Scan(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	writePEM(t, root, "NSS", "2020-02-01", trusted(t, 0))
	sameScan(t, "after close", src, newPollingDirSource(root, 0))
	if src.SourceStats().Inotify || src.Notify() != nil {
		t.Fatal("closed source still reports inotify")
	}
}
