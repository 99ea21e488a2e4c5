package tracker

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestDirSourceRenameOntoEmptyDir: rename(2) may replace an empty
// directory, which the kernel reports as the replacement arriving under
// the name and the old directory's own watch reporting it gone, in that
// order. The departure must not take the replacement's watches with it.
// (os.Rename refuses to replace directories, so the syscall is used.)
func TestDirSourceRenameOntoEmptyDir(t *testing.T) {
	root := t.TempDir()
	write := func(rel string) {
		t.Helper()
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(rel), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rename := func(from, to string) {
		t.Helper()
		if err := syscall.Rename(filepath.Join(root, from), filepath.Join(root, to)); err != nil {
			t.Fatal(err)
		}
	}
	write("P1/v0/f")
	write("P1/v1/f")
	if err := os.MkdirAll(filepath.Join(root, "P2", "v9"), 0o755); err != nil {
		t.Fatal(err)
	}
	watched := newWatchedSource(t, root, 0)
	polled := newPollingDirSource(root, 0)
	sameScan(t, "start", watched, polled)

	rename("P1/v0", "P2/v9") // a version onto an empty version
	sameScan(t, "version renamed", watched, polled)
	write("P2/v9/g")
	sameScan(t, "write in the renamed version", watched, polled)

	if err := os.Mkdir(filepath.Join(root, "P3"), 0o755); err != nil {
		t.Fatal(err)
	}
	sameScan(t, "empty provider", watched, polled)
	rename("P1", "P3") // a provider onto an empty provider
	sameScan(t, "provider renamed", watched, polled)
	write("P3/v2/f")
	write("P3/v1/g")
	sameScan(t, "writes in the renamed provider", watched, polled)
}
