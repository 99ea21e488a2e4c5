package trustbench

// The reload workload's snapshot tree: the full synthgen corpus on disk
// (820 snapshots, ~71k files), each version directory's mtime set to its
// snapshot's date because synthgen's version names are not dates, with a
// compiled .rootpack sidecar so trustd -watch starts on the fast path.
// Writing it takes tens of seconds, so it is written once per checkout
// under .bench_build/tree; each run serves its own hard-linked copy, which
// trustd may rewrite (the sidecar is replaced by rename, never in place).

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/store"
)

// PristineTree returns the checkout's reload tree, writing it with
// synthgen first if it does not exist. db is the same corpus in process;
// it supplies the snapshot dates.
func PristineTree(ctx context.Context, root string, bins Binaries, db *store.Database) (string, error) {
	dir := filepath.Join(root, BuildDir, "tree")
	if fileExists(dir) {
		return dir, nil
	}
	tmp, err := os.MkdirTemp(filepath.Join(root, BuildDir), "tree.tmp-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp) // left behind only when the rename below fails
	cmd := exec.CommandContext(ctx, bins.Synthgen, "-out", tmp, "-seed", CorpusSeed, "-latest-only=false")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("synthgen: %w\n%s", err, out)
	}
	for _, p := range db.Providers() {
		for _, s := range db.History(p).Snapshots() {
			if err := os.Chtimes(filepath.Join(tmp, p, s.Version), s.Date, s.Date); err != nil {
				return "", err
			}
		}
	}
	// Compile-on-ingest writes the sidecar.
	if _, err := catalog.LoadTree(tmp, catalog.Options{}); err != nil {
		return "", fmt.Errorf("compile reload tree: %w", err)
	}
	if err := os.Rename(tmp, dir); err != nil && !fileExists(dir) {
		return "", err
	}
	return dir, nil
}

// LinkTree copies a tree by hard-linking its files, then restores each
// directory's mtime (directory dates are snapshot dates).
func LinkTree(src, dst string) error {
	type stamp struct {
		path string
		mod  time.Time
	}
	var dirs []stamp
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if !d.IsDir() {
			return os.Link(path, target)
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		dirs = append(dirs, stamp{target, info.ModTime()})
		return os.MkdirAll(target, 0o755)
	})
	if err != nil {
		return fmt.Errorf("link tree: %w", err)
	}
	// Children first, so restoring a parent's mtime is the last touch.
	for i := len(dirs) - 1; i >= 0; i-- {
		if err := os.Chtimes(dirs[i].path, dirs[i].mod, dirs[i].mod); err != nil {
			return err
		}
	}
	return nil
}

// nssCopy adds and removes the reload workload's date-named copy of NSS's
// latest snapshot. Both changes are renames, so a poll never sees a
// half-written directory.
type nssCopy struct {
	tree, staging string
	src           string // NSS's latest version directory
	present       bool
}

func newNSSCopy(tree, staging string, db *store.Database) (*nssCopy, error) {
	if err := os.MkdirAll(staging, 0o755); err != nil {
		return nil, err
	}
	src := filepath.Join(tree, "NSS", db.History("NSS").Latest().Version)
	if !fileExists(src) {
		return nil, fmt.Errorf("reload tree has no %s", src)
	}
	return &nssCopy{tree: tree, staging: staging, src: src}, nil
}

// Toggle adds the copy if it is absent and removes it otherwise, and
// returns when the change landed.
func (c *nssCopy) Toggle() (time.Time, error) {
	live := filepath.Join(c.tree, "NSS", NSSCopyVersion)
	staged := filepath.Join(c.staging, NSSCopyVersion)
	if err := os.RemoveAll(staged); err != nil {
		return time.Time{}, err
	}
	if c.present {
		if err := os.Rename(live, staged); err != nil {
			return time.Time{}, err
		}
		at := time.Now()
		c.present = false
		return at, os.RemoveAll(staged)
	}
	if err := LinkTree(c.src, staged); err != nil {
		return time.Time{}, err
	}
	if err := os.Rename(staged, live); err != nil {
		return time.Time{}, err
	}
	c.present = true
	return time.Now(), nil
}
