package catalog

// The one stat walk over a snapshot tree. ScanTree lists the version
// directories and stamps each with the stat data of its files; the
// tracker keys change detection and its settle window on the stamps, and a
// load checks saved digests against them and hands them to the digests it
// computes. A cold start therefore walks the tree once.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/archive"
)

// VersionDir is one <root>/<provider>/<version>/ directory as a stat walk
// saw it.
type VersionDir struct {
	Provider, Version string
	Dir               string // the directory's path
	// Date is the snapshot date: the version name when it parses as a
	// date, else the directory's mtime.
	Date time.Time
	// Stamp hashes the stat data of the directory, everything a tree hash
	// reads in it and its nested directories: names, types, sizes, mtimes,
	// and on Linux change times and inode numbers. A write, rename or
	// attribute change inside moves it.
	Stamp [archive.HashLen]byte
	// Newest is the newest change time the stamp saw (the newest mtime
	// where the platform has no change times), Unix ns.
	Newest int64
	// Taken is the wall clock just before the walk, Unix ns.
	Taken int64
	// Empty is true for a directory with no entries: no snapshot yet.
	Empty bool
}

// Key identifies the directory within its tree: "provider/version".
func (v VersionDir) Key() string { return v.Provider + "/" + v.Version }

// ScanTree stat-walks every version directory under root, GOMAXPROCS
// directories at a time, and returns them in the deterministic (provider,
// version) lexical order every loader shares. Empty directories hold no
// snapshot and are left out, as are directories that vanish mid-walk.
func ScanTree(root string) ([]VersionDir, error) { return scanTree(root, true) }

// listTree is ScanTree without the stamps: the same directories, dates
// and order, for callers that read every directory anyway and keep no
// digest for a later load (a one-shot tree hash, an ArchiveOff parse).
func listTree(root string) ([]VersionDir, error) { return scanTree(root, false) }

func scanTree(root string, stamp bool) ([]VersionDir, error) {
	provs, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	var dirs []VersionDir
	for _, prov := range provs {
		if !prov.IsDir() {
			continue
		}
		versions, err := os.ReadDir(filepath.Join(root, prov.Name()))
		if err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
		for _, v := range versions {
			if v.IsDir() {
				dirs = append(dirs, VersionDir{Provider: prov.Name(), Version: v.Name()})
			}
		}
	}
	errs := statVersionDirs(root, dirs, stamp)
	out := dirs[:0]
	for i, d := range dirs {
		switch err := errs[i]; {
		case errors.Is(err, fs.ErrNotExist), err == nil && d.Empty:
		case err != nil:
			return nil, err
		default:
			out = append(out, d)
		}
	}
	return out, nil
}

// StatVersionDirs stat-walks the version directories dirs name by
// Provider and Version, GOMAXPROCS at a time, filling in the rest of each.
// errs[i] is dirs[i]'s failure; one matching fs.ErrNotExist means the
// directory is gone or no longer a directory.
func StatVersionDirs(root string, dirs []VersionDir) []error {
	return statVersionDirs(root, dirs, true)
}

func statVersionDirs(root string, dirs []VersionDir, stamp bool) []error {
	if len(dirs) == 0 {
		return nil // an idle inotify scan allocates nothing here
	}
	errs := make([]error, len(dirs))
	parallelFor(len(dirs), func(i int) {
		dirs[i], errs[i] = statVersionDir(root, dirs[i].Provider, dirs[i].Version, stamp)
	})
	return errs
}

// statVersionDir stat-walks one version directory; without stamp it
// reads only the directory's own stat and whether it has entries.
func statVersionDir(root, provider, version string, stamp bool) (VersionDir, error) {
	v := VersionDir{
		Provider: provider,
		Version:  version,
		Dir:      filepath.Join(root, provider, version),
		Taken:    time.Now().UnixNano(),
	}
	fi, err := os.Lstat(v.Dir)
	switch {
	case err == nil && !fi.IsDir(), errors.Is(err, syscall.ENOTDIR):
		return v, fmt.Errorf("catalog: %s is not a directory: %w", v.Dir, fs.ErrNotExist)
	case err != nil:
		return v, fmt.Errorf("catalog: %w", err)
	}
	v.Date = versionDate(version, fi)
	if !stamp {
		v.Empty, err = isEmpty(v.Dir)
	} else {
		v.Stamp, v.Newest, v.Empty, err = statStamp(v.Dir, fi)
	}
	if err != nil {
		return v, fmt.Errorf("catalog: %w", err)
	}
	return v, nil
}

// statStamp hashes the stat data of dir (fi is its Lstat), of everything
// hashDir reads in it and of its nested directories, and reports the
// newest change time among them and whether dir has no entries. Symbolic
// links are stamped by their targets, which hashDir reads. An entry that
// vanishes mid-walk is left out: its removal moved dir's own times.
func statStamp(dir string, fi os.FileInfo) (stamp [archive.HashLen]byte, newest int64, empty bool, err error) {
	h := sha256.New()
	add := func(name string, fi os.FileInfo) {
		change, ino := changeTime(fi)
		newest = max(newest, change)
		fmt.Fprintf(h, "%s\x00%d\x00%d\x00%d\x00%d\x00%d\x00", name, fi.Mode().Type(), fi.Size(), fi.ModTime().UnixNano(), change, ino)
	}
	var walk func(dir, prefix string, depth int) error
	walk = func(dir, prefix string, depth int) error {
		des, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		if prefix == "" {
			empty = len(des) == 0
		}
		for _, de := range des {
			path := filepath.Join(dir, de.Name())
			fi, err := os.Lstat(path)
			if err == nil && fi.Mode()&os.ModeSymlink != 0 {
				fi, err = os.Stat(path)
			}
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			if err != nil {
				return err
			}
			add(prefix+de.Name(), fi)
			if de.IsDir() && depth > 0 {
				err := walk(path, prefix+de.Name()+"/", depth-1)
				if err != nil && !errors.Is(err, fs.ErrNotExist) {
					return err
				}
			}
		}
		return nil
	}
	add(".", fi)
	if err := walk(dir, "", 1); err != nil {
		return stamp, 0, false, err
	}
	h.Sum(stamp[:0])
	return stamp, newest, empty, nil
}

// isEmpty reports whether dir has no entries, reading at most one.
func isEmpty(dir string) (bool, error) {
	f, err := os.Open(dir)
	if err != nil {
		return false, err
	}
	defer f.Close()
	if _, err := f.Readdirnames(1); err != io.EOF {
		return false, err
	}
	return true, nil
}
