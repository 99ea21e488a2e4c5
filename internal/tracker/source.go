package tracker

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// SnapshotDir is one snapshot directory a source found: a
// <root>/<provider>/<version>/ leaf in the layout internal/catalog
// documents (catalog.TreeLayout).
type SnapshotDir struct {
	Provider string
	Version  string
	Path     string
	// ModTime is the newest modification time across the directory and
	// its files. Together with Size it forms the change stamp the tracker
	// keys rescans on.
	ModTime time.Time
	// Size is the total byte size of the directory's files (one nested
	// level deep, like ModTime's walk). A same-second rewrite that mtime
	// alone cannot distinguish still changes the stamp when the content
	// length moves.
	Size int64
}

// Key identifies the snapshot directory within its tree.
func (d SnapshotDir) Key() string { return d.Provider + "/" + d.Version }

// dirKey identifies a snapshot directory in the tracker's maps without
// building Key's string: a no-change poll then allocates nothing per
// directory.
type dirKey struct{ provider, version string }

func (d SnapshotDir) dirKey() dirKey { return dirKey{d.Provider, d.Version} }

// Source enumerates snapshot directories. DirSource polls a local tree;
// the interface exists so a remote fetcher (rsync mirror, release-archive
// crawler) can plug into the same tracker later: anything that can
// materialize catalog's <provider>/<version>/ layout and report change
// stamps qualifies.
type Source interface {
	// Root is the tree root handed to catalog.LoadTree on reload.
	Root() string
	// Scan lists the settled snapshot directories, sorted by
	// (provider, version). Directories still being written (modified
	// within the settle window) are omitted and picked up next scan.
	Scan() ([]SnapshotDir, error)
}

// Notifier is implemented by sources that learn of changes as they happen
// (DirSource with inotify). Run rescans as soon as the channel fires
// instead of waiting out the poll interval; the interval stays as the
// backstop that re-checks directories still inside the settle window.
type Notifier interface {
	Notify() <-chan struct{}
}

// DirSource watches a local snapshot tree. On Linux it keeps an inotify
// dirty set: every directory a stamp depends on carries a watch, and a
// Scan re-stats only the version directories events named since the last
// one, so a rescan's cost follows the change rather than the tree (the
// first Scan, and the one after a queue overflow, walk everything). Its
// output is the full stat walk's, at a fraction of the syscalls.
// Elsewhere — other platforms, trees on network filesystems (whose remote
// writes inotify never sees), or once inotify fails — each Scan re-walks
// the two directory levels and stats every file.
type DirSource struct {
	root string
	// settle is how long a snapshot directory must be quiescent before it
	// is reported; it papers over multi-file writers (authroot.stl plus
	// its certs/, Apple roots dirs) being caught mid-copy.
	settle time.Duration
	now    func() time.Time

	mu         sync.Mutex
	poll       bool     // stat-walk every scan; set for good once inotify fails
	pollReason error    // why inotify is not in use, when it is not
	watch      *watcher // nil until the first Scan, and when polling
	// known is the last stat of every reported directory; recheck holds
	// directories re-statted every scan until they settle (or stop failing).
	known   map[string]SnapshotDir
	recheck map[string]bool
	sorted  []SnapshotDir // known in key order; nil once a restat may have moved it
	statted uint64        // version directories stat-walked so far
}

// NewDirSource watches root with the given settle window. A zero settle
// reports directories immediately.
func NewDirSource(root string, settle time.Duration) *DirSource {
	return &DirSource{root: root, settle: settle, now: time.Now}
}

// Root returns the watched tree root.
func (s *DirSource) Root() string { return s.root }

// Scan implements Source.
func (s *DirSource) Scan() ([]SnapshotDir, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.poll && s.watch == nil {
		if _, err := os.Stat(s.root); err != nil {
			return s.walk() // reports the missing root; inotify is tried again next scan
		}
		w, err := newWatcher(s.root)
		if err != nil {
			s.fallBack(err)
		} else {
			s.watch = w
		}
	}
	if s.watch != nil {
		dirs, err := s.scanWatched()
		if !errors.Is(err, errWatchFailed) {
			return dirs, err
		}
		s.fallBack(err)
	}
	return s.walk()
}

// fallBack switches to polling for good. Callers hold s.mu.
func (s *DirSource) fallBack(err error) {
	if s.watch != nil {
		s.watch.close()
		s.watch = nil
	}
	s.poll, s.pollReason = true, err
	s.known, s.recheck, s.sorted = nil, nil, nil
}

// walk is the full stat walk: every version directory, every file.
func (s *DirSource) walk() ([]SnapshotDir, error) {
	provs, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("tracker: scan %s: %w", s.root, err)
	}
	cutoff := s.now().Add(-s.settle)
	var out []SnapshotDir
	for _, prov := range provs {
		if !prov.IsDir() {
			continue
		}
		provDir := filepath.Join(s.root, prov.Name())
		versions, err := os.ReadDir(provDir)
		if err != nil {
			return nil, fmt.Errorf("tracker: scan %s: %w", provDir, err)
		}
		for _, v := range versions {
			if !v.IsDir() {
				continue
			}
			dir := filepath.Join(provDir, v.Name())
			s.statted++
			stamp, size, empty, err := newestModTime(dir)
			if err != nil {
				return nil, err
			}
			if empty {
				continue // nothing ingestable yet
			}
			if s.settle > 0 && stamp.After(cutoff) {
				continue // still being written; next scan gets it
			}
			out = append(out, SnapshotDir{
				Provider: prov.Name(),
				Version:  v.Name(),
				Path:     dir,
				ModTime:  stamp,
				Size:     size,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}

// scanWatched re-stats the directories the dirty set names (plus any
// still settling) and reports every known directory. Callers hold s.mu.
func (s *DirSource) scanWatched() ([]SnapshotDir, error) {
	ch, err := s.watch.take()
	if err != nil {
		return nil, err
	}
	if s.known == nil || ch.all {
		// A full walk: forget nothing known yet, so directories that
		// vanished while events were lost are re-statted and dropped.
		if s.known == nil {
			s.known, s.recheck = make(map[string]SnapshotDir), make(map[string]bool)
		}
		for key := range s.known {
			ch.markKey(key)
		}
	}
	for prov := range ch.providers {
		for key, d := range s.known {
			if d.Provider == prov {
				ch.markKey(key)
			}
		}
	}
	for key := range s.recheck {
		ch.markKey(key)
	}
	cutoff := s.now().Add(-s.settle)
	for key := range ch.keys {
		if err := s.restat(key, cutoff); err != nil {
			for key := range ch.keys {
				s.recheck[key] = true // the events are spent; retry by stat
			}
			return nil, err
		}
	}
	if s.sorted == nil {
		s.sorted = make([]SnapshotDir, 0, len(s.known))
		for _, d := range s.known {
			s.sorted = append(s.sorted, d)
		}
		sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i].Key() < s.sorted[j].Key() })
	}
	return slices.Clone(s.sorted), nil
}

// restat refreshes one version directory's entry in s.known exactly as a
// full walk would judge it. Callers hold s.mu.
func (s *DirSource) restat(key string, cutoff time.Time) error {
	prov, version, _ := strings.Cut(key, "/")
	dir := filepath.Join(s.root, prov, version)
	s.statted++
	stamp, size, empty, err := newestModTime(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, syscall.ENOTDIR) {
		return err
	}
	delete(s.known, key)
	delete(s.recheck, key)
	s.sorted = nil
	switch {
	case err != nil:
		// Gone, or no longer a directory.
	case empty:
		// Nothing ingestable yet; its watch reports the first file.
	case s.settle > 0 && stamp.After(cutoff):
		s.recheck[key] = true // still being written
	default:
		s.known[key] = SnapshotDir{Provider: prov, Version: version, Path: dir, ModTime: stamp, Size: size}
	}
	return nil
}

// Notify implements Notifier: with inotify in use the channel receives
// whenever an event dirties a snapshot directory; when polling it is nil,
// which never fires.
func (s *DirSource) Notify() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.watch == nil {
		return nil
	}
	return s.watch.notify()
}

// SourceStats describes how a DirSource finds changes.
type SourceStats struct {
	// Inotify is true while an inotify dirty set drives scans, false while
	// every scan stat-walks the tree.
	Inotify bool
	// Watches is the number of directories carrying an inotify watch.
	Watches int
	// Overflows counts inotify queue overflows, each answered with one
	// full walk.
	Overflows uint64
	// DirsStatted counts version directories stat-walked so far: the
	// tree's size per poll when polling, the number of changes with
	// inotify.
	DirsStatted uint64
	// PollReason says why scans stat-walk the tree ("" while inotify is in
	// use or before the first scan).
	PollReason string
}

// SourceStats reports the source's change-detection counters.
func (s *DirSource) SourceStats() SourceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SourceStats{DirsStatted: s.statted}
	if s.pollReason != nil {
		st.PollReason = s.pollReason.Error()
	}
	if s.watch != nil {
		st.Inotify = true
		st.Watches, st.Overflows = s.watch.stats()
	}
	return st
}

// Close releases the inotify descriptor and its wake goroutine, if any.
// Later scans poll.
func (s *DirSource) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.poll, s.pollReason = true, errors.New("tracker: source closed")
	if s.watch == nil {
		return nil
	}
	err := s.watch.close()
	s.watch, s.known, s.recheck, s.sorted = nil, nil, nil, nil
	return err
}

// changes is what the dirty set accumulated between two scans.
type changes struct {
	// all asks for a full walk: the first scan, or events were lost.
	all bool
	// keys are version directories ("provider/version") to re-stat.
	keys map[string]bool
	// providers are provider directories that arrived or left; every
	// directory known under them is re-statted.
	providers map[string]bool
}

func (c *changes) markKey(key string) {
	if c.keys == nil {
		c.keys = make(map[string]bool)
	}
	c.keys[key] = true
}

func (c *changes) markProvider(name string) {
	if c.providers == nil {
		c.providers = make(map[string]bool)
	}
	c.providers[name] = true
}

// newestModTime walks dir one level deep (snapshot formats nest at most
// one subdirectory, e.g. authroot's certs/) and returns the newest mtime
// plus the total file byte size.
func newestModTime(dir string) (stamp time.Time, size int64, empty bool, err error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return time.Time{}, 0, false, fmt.Errorf("tracker: %w", err)
	}
	empty = true
	consider := func(path string, de os.DirEntry) error {
		info, err := de.Info()
		if err != nil {
			if os.IsNotExist(err) {
				return nil // racing a writer; the next scan settles it
			}
			return fmt.Errorf("tracker: %w", err)
		}
		if info.ModTime().After(stamp) {
			stamp = info.ModTime()
		}
		if !de.IsDir() {
			size += info.Size()
		}
		return nil
	}
	for _, de := range des {
		empty = false
		if err := consider(dir, de); err != nil {
			return time.Time{}, 0, false, err
		}
		if de.IsDir() {
			sub := filepath.Join(dir, de.Name())
			subs, err := os.ReadDir(sub)
			if err != nil {
				if os.IsNotExist(err) {
					continue
				}
				return time.Time{}, 0, false, fmt.Errorf("tracker: %w", err)
			}
			for _, sde := range subs {
				if err := consider(sub, sde); err != nil {
					return time.Time{}, 0, false, err
				}
			}
		}
	}
	return stamp, size, empty, nil
}
