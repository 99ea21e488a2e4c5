package tracker

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
)

// dirKey identifies a snapshot directory in the tracker's maps without
// building Key's string: a no-change poll then allocates nothing per
// directory.
type dirKey struct{ provider, version string }

func keyOf(d catalog.VersionDir) dirKey { return dirKey{d.Provider, d.Version} }

// DirSource watches a local snapshot tree in the layout internal/catalog
// documents (catalog.TreeLayout), stamping version directories with
// catalog's stat walk. On Linux it keeps an inotify dirty set: every
// directory a stamp depends on carries a watch, and a Scan re-stats only
// the version directories events named since the last one, so a rescan's
// cost follows the change rather than the tree (the first Scan, and the
// one after a queue overflow, walk everything). Its output is the full
// stat walk's, at a fraction of the syscalls — except that a hard link
// made from outside the tree moves a file's change time with no event, so
// only the full walk sees it. Elsewhere — other platforms, trees on
// network filesystems (whose remote writes inotify never sees), or once
// inotify fails — each Scan walks the whole tree.
type DirSource struct {
	root string
	// settle is how long a snapshot directory's newest change time must
	// lie in the past before a change to it is reported; it papers over
	// multi-file writers (authroot.stl plus its certs/, Apple roots dirs)
	// being caught mid-copy, even ones that preserve old mtimes.
	settle time.Duration
	now    func() time.Time

	mu         sync.Mutex
	poll       bool     // stat-walk every scan; set for good once inotify fails
	pollReason error    // why inotify is not in use, when it is not
	watch      *watcher // nil until the first Scan, and when polling
	// known is the last settled stat of every reported directory (kept by
	// walks only with a settle window); recheck holds directories
	// re-statted every scan until they settle (or stop failing).
	known   map[string]catalog.VersionDir
	recheck map[string]bool
	sorted  []catalog.VersionDir // known in key order; nil once a restat may have moved it
	statted uint64               // version directories stat-walked so far
}

// NewDirSource watches root with the given settle window. A zero settle
// reports directories immediately.
func NewDirSource(root string, settle time.Duration) *DirSource {
	return &DirSource{root: root, settle: settle, now: time.Now}
}

// Root returns the watched tree root.
func (s *DirSource) Root() string { return s.root }

// Scan lists the settled, non-empty snapshot directories, sorted by
// (provider, version). A directory changed within the settle window is
// held back: a new one is omitted, and one reported before is reported
// as it last settled, until a later scan sees it quiet. The caller must
// not modify the returned slice: with inotify, scans that find no change
// return the same one.
func (s *DirSource) Scan() ([]catalog.VersionDir, error) { return s.scan(false) }

// scan is Scan; a cold scan applies no settle window, so a tracker's first
// load takes every non-empty directory, however recently its files were
// copied in (tar x, rsync -a and cp -p leave every change time at "now").
func (s *DirSource) scan(cold bool) ([]catalog.VersionDir, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := int64(math.MaxInt64)
	if s.settle > 0 && !cold {
		cutoff = s.now().Add(-s.settle).UnixNano()
	}
	if !s.poll && s.watch == nil {
		if _, err := os.Stat(s.root); err != nil {
			return s.walk(cutoff) // reports the missing root; inotify is tried again next scan
		}
		w, err := newWatcher(s.root)
		if err != nil {
			s.fallBack(err)
		} else {
			s.watch = w
		}
	}
	if s.watch != nil {
		dirs, err := s.scanWatched(cutoff)
		if !errors.Is(err, errWatchFailed) {
			return dirs, err
		}
		s.fallBack(err)
	}
	return s.walk(cutoff)
}

// fallBack switches to polling for good, keeping what settled last.
// Callers hold s.mu.
func (s *DirSource) fallBack(reason error) error {
	var err error
	if s.watch != nil {
		err = s.watch.close()
		s.watch = nil
	}
	s.poll, s.pollReason = true, reason
	s.recheck, s.sorted = nil, nil
	return err
}

// walk is the full stat walk: every version directory, every file. A
// directory whose newest change time is past cutoff is held back.
func (s *DirSource) walk(cutoff int64) ([]catalog.VersionDir, error) {
	dirs, err := catalog.ScanTree(s.root)
	if err != nil {
		return nil, fmt.Errorf("tracker: scan: %w", err)
	}
	s.statted += uint64(len(dirs))
	if s.settle <= 0 {
		return dirs, nil // nothing is ever held back
	}
	known := make(map[string]catalog.VersionDir, len(dirs))
	out := dirs[:0]
	for _, d := range dirs {
		key := d.Key()
		if d.Newest > cutoff {
			prev, ok := s.known[key]
			if !ok {
				continue // new and still being written; a later scan reports it
			}
			d = prev // changed and still being written: report what settled last
		}
		known[key] = d
		out = append(out, d)
	}
	s.known = known
	return out, nil
}

// scanWatched re-stats the directories the dirty set names (plus any
// still settling) and reports every known directory. Callers hold s.mu.
func (s *DirSource) scanWatched(cutoff int64) ([]catalog.VersionDir, error) {
	ch, err := s.watch.take()
	if err != nil {
		return nil, err
	}
	if s.known == nil || ch.all {
		// A full walk: forget nothing known yet, so directories that
		// vanished while events were lost are re-statted and dropped.
		if s.known == nil {
			s.known, s.recheck = make(map[string]catalog.VersionDir), make(map[string]bool)
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
	dirs := make([]catalog.VersionDir, 0, len(ch.keys))
	for key := range ch.keys {
		prov, version, _ := strings.Cut(key, "/")
		dirs = append(dirs, catalog.VersionDir{Provider: prov, Version: version})
	}
	s.statted += uint64(len(dirs))
	errs := catalog.StatVersionDirs(s.root, dirs)
	for i, d := range dirs {
		if err := errs[i]; err != nil && !errors.Is(err, fs.ErrNotExist) {
			for key := range ch.keys {
				s.recheck[key] = true // the events are spent; retry by stat
			}
			return nil, err
		}
		key := d.Key()
		switch {
		case errs[i] != nil, d.Empty:
			// Gone, or nothing ingestable yet; its watch reports the first file.
			delete(s.known, key)
			delete(s.recheck, key)
			s.sorted = nil
		case d.Newest > cutoff:
			// Still being written: a known directory keeps its last
			// settled entry until this one settles.
			s.recheck[key] = true
		default:
			delete(s.recheck, key)
			s.known[key] = d
			s.sorted = nil
		}
	}
	if s.sorted == nil {
		s.sorted = make([]catalog.VersionDir, 0, len(s.known))
		for _, d := range s.known {
			s.sorted = append(s.sorted, d)
		}
		sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i].Key() < s.sorted[j].Key() })
	}
	return s.sorted, nil // replaced, never modified, when a restat moves it
}

// Notify returns a channel that, with inotify in use, receives whenever
// an event dirties a snapshot directory; when polling it is nil, which
// never fires.
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
	return s.fallBack(errors.New("tracker: source closed"))
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
