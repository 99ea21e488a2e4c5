//go:build linux

package tracker

// The inotify dirty set behind DirSource. Every directory a snapshot
// stamp depends on carries a watch — the root, each provider directory,
// each version directory and two levels below it — and each event names
// the version directory it dirties. Scan re-stats only those, so a
// rescan's cost follows the change, not the tree.
//
// Events are queued by the kernel before the syscall that caused them
// returns, so a Scan that drains the queue sees every change made before
// it started, exactly like a stat walk would. A full queue (IN_Q_OVERFLOW)
// loses events; the watcher then asks for one full walk, which also
// re-adds any watch a lost creation event never got.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"repro/internal/catalog"
)

// watchMask is every event that can move a snapshot stamp or the set of
// snapshot directories.
const watchMask = syscall.IN_CREATE | syscall.IN_DELETE | syscall.IN_MODIFY |
	syscall.IN_ATTRIB | syscall.IN_CLOSE_WRITE | syscall.IN_MOVED_FROM |
	syscall.IN_MOVED_TO | syscall.IN_DELETE_SELF | syscall.IN_MOVE_SELF |
	syscall.IN_ONLYDIR | syscall.IN_DONT_FOLLOW

// maxWatchDepth is the deepest directory watched (root = 0, provider = 1,
// version = 2). A stamp reads one nested level below the version
// directory, and that level's subdirectory entries carry mtimes of their
// own, so directories down to depth 4 are watched.
const maxWatchDepth = 4

// errWatchFailed marks a watcher that can no longer be trusted (watch
// limit reached, read failure); DirSource falls back to polling.
var errWatchFailed = errors.New("tracker: inotify watch failed")

type watcher struct {
	root string
	file *os.File
	fd   int
	rc   syscall.RawConn

	// mu is held across every read of the queue and the processing of
	// what it returned, so a Scan that drains under it never misses an
	// event the wake goroutine has read but not yet recorded.
	mu        sync.Mutex
	closed    bool
	failed    error
	paths     map[int32]string // watch descriptor → path relative to root
	pending   changes
	overflows uint64
	buf       []byte

	wake    chan struct{}
	waiting sync.Once
}

func newWatcher(root string) (*watcher, error) {
	if remote, err := catalog.RemoteFilesystem(root); err != nil {
		return nil, err
	} else if remote != "" {
		return nil, fmt.Errorf("tracker: %s is on %s, whose remote changes inotify cannot see", root, remote)
	}
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("tracker: inotify: %w", err)
	}
	// A non-blocking descriptor joins the runtime poller, so the wake
	// goroutine parks without holding a thread, and Close unparks it.
	file := os.NewFile(uintptr(fd), "inotify")
	rc, err := file.SyscallConn()
	if err != nil {
		file.Close()
		return nil, fmt.Errorf("tracker: inotify: %w", err)
	}
	return &watcher{
		root:    root,
		file:    file,
		fd:      fd,
		rc:      rc,
		paths:   make(map[int32]string),
		pending: changes{all: true},
		buf:     make([]byte, 64<<10),
		wake:    make(chan struct{}, 1),
	}, nil
}

// take drains the event queue and returns the changes accumulated since
// the previous take. When they call for a full walk, the watches are
// (re)established first and every version directory found is reported.
func (w *watcher) take() (changes, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return changes{}, errWatchFailed
	}
	if w.failed == nil {
		if _, err := w.readLocked(); err != nil {
			w.failed = err
		}
	}
	if w.failed != nil {
		return changes{}, fmt.Errorf("%w: %v", errWatchFailed, w.failed)
	}
	ch := w.pending
	w.pending = changes{}
	if ch.all {
		if err := w.addTree(&ch); err != nil {
			w.pending.all = true // retry the walk next scan
			return changes{}, err
		}
		if w.failed != nil {
			return changes{}, fmt.Errorf("%w: %v", errWatchFailed, w.failed)
		}
	}
	return ch, nil
}

// addTree watches the root and everything below it down to maxWatchDepth,
// recording every version directory in ch.
func (w *watcher) addTree(ch *changes) error {
	// Start over: the old descriptors may point at a moved-away root.
	for wd := range w.paths {
		syscall.InotifyRmWatch(w.fd, uint32(wd))
	}
	clear(w.paths)
	w.add("")
	provs, err := os.ReadDir(w.root)
	if err != nil {
		return fmt.Errorf("tracker: scan %s: %w", w.root, err)
	}
	for _, p := range provs {
		if p.IsDir() {
			w.addProvider(p.Name(), ch)
		}
	}
	return nil
}

func (w *watcher) addProvider(name string, ch *changes) {
	if !w.add(name) {
		return
	}
	versions, err := os.ReadDir(filepath.Join(w.root, name))
	if err != nil {
		return // raced a removal; the removal's own event reports it
	}
	for _, v := range versions {
		if v.IsDir() {
			rel := name + "/" + v.Name()
			w.addSubtree(rel, 2)
			ch.markKey(rel)
		}
	}
}

func (w *watcher) addSubtree(rel string, depth int) {
	if !w.add(rel) || depth >= maxWatchDepth {
		return
	}
	des, err := os.ReadDir(filepath.Join(w.root, filepath.FromSlash(rel)))
	if err != nil {
		return
	}
	for _, de := range des {
		if de.IsDir() {
			w.addSubtree(rel+"/"+de.Name(), depth+1)
		}
	}
}

// add watches one directory and reports whether it now is watched. A
// directory that vanished first is skipped; any other failure (the
// per-user watch limit, most likely) marks the watcher failed.
func (w *watcher) add(rel string) bool {
	wd, err := syscall.InotifyAddWatch(w.fd, filepath.Join(w.root, filepath.FromSlash(rel)), watchMask)
	if err != nil {
		if err != syscall.ENOENT && err != syscall.ENOTDIR && w.failed == nil {
			w.failed = fmt.Errorf("watch %s: %w", rel, err)
		}
		return false
	}
	w.paths[int32(wd)] = rel
	return true
}

// drop stops watching rel and everything below it: a directory moved out
// of the tree keeps its watches otherwise, reporting under a stale path.
func (w *watcher) drop(rel string) {
	for wd, p := range w.paths {
		if p == rel || strings.HasPrefix(p, rel+"/") {
			syscall.InotifyRmWatch(w.fd, uint32(wd))
			delete(w.paths, wd)
		}
	}
}

// readLocked reads the queue until it is empty and folds every event into
// w.pending, reporting whether any of them dirtied something.
func (w *watcher) readLocked() (bool, error) {
	dirtied := false
	for {
		n, err := syscall.Read(w.fd, w.buf)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return dirtied, nil
		case err != nil:
			return dirtied, err
		}
		for off := 0; off+syscall.SizeofInotifyEvent <= n; {
			wd := int32(binary.NativeEndian.Uint32(w.buf[off:]))
			mask := binary.NativeEndian.Uint32(w.buf[off+4:])
			nameLen := int(binary.NativeEndian.Uint32(w.buf[off+12:]))
			off += syscall.SizeofInotifyEvent
			name := strings.TrimRight(string(w.buf[off:off+nameLen]), "\x00")
			off += nameLen
			if w.event(wd, mask, name) {
				dirtied = true
			}
		}
	}
}

// event folds one inotify event into w.pending and reports whether it
// dirtied anything a scan reports.
func (w *watcher) event(wd int32, mask uint32, name string) bool {
	if mask&syscall.IN_Q_OVERFLOW != 0 {
		w.overflows++
		w.pending.all = true
		return true
	}
	base, ok := w.paths[wd]
	if !ok {
		return false // a watch already dropped
	}
	if mask&syscall.IN_IGNORED != 0 {
		delete(w.paths, wd)
		return false
	}
	ch := &w.pending
	gone := mask&(syscall.IN_DELETE_SELF|syscall.IN_MOVE_SELF) != 0
	if name == "" { // the watched directory itself
		parts := splitRel(base)
		switch {
		case len(parts) >= 2:
			ch.markKey(parts[0] + "/" + parts[1])
		case !gone:
			return false // root or provider metadata: no stamp reads it
		case len(parts) == 1:
			// Gone, by removal or by a rename that replaced it. Its path
			// may already belong to the replacement, so only this
			// descriptor goes, not the watches under the path.
			delete(w.paths, wd)
			ch.markProvider(parts[0])
		default:
			ch.all = true // the root itself moved or vanished
		}
		return true
	}

	rel := name
	if base != "" {
		rel = base + "/" + name
	}
	parts := splitRel(rel)
	isDir := mask&syscall.IN_ISDIR != 0
	arrived := isDir && mask&(syscall.IN_CREATE|syscall.IN_MOVED_TO) != 0
	left := isDir && mask&(syscall.IN_DELETE|syscall.IN_MOVED_FROM) != 0
	if left {
		w.drop(rel)
	}
	switch len(parts) {
	case 1: // a provider directory; files beside them (the sidecar) are no snapshots
		if !arrived && !left {
			return false
		}
		if arrived {
			w.addProvider(parts[0], ch)
		}
		ch.markProvider(parts[0])
	case 2: // a version directory
		if !isDir {
			return false
		}
		if arrived {
			w.addSubtree(rel, 2)
		}
		ch.markKey(rel)
	default: // inside a version directory
		if arrived && len(parts) <= maxWatchDepth {
			w.addSubtree(rel, len(parts))
		}
		ch.markKey(parts[0] + "/" + parts[1])
	}
	return true
}

func splitRel(rel string) []string {
	if rel == "" {
		return nil
	}
	return strings.Split(rel, "/")
}

// notify starts the wake goroutine on first use and returns its channel,
// which receives (coalesced) whenever an event dirties something.
func (w *watcher) notify() <-chan struct{} {
	w.waiting.Do(func() { go w.waitLoop() })
	return w.wake
}

func (w *watcher) waitLoop() {
	w.rc.Read(func(uintptr) bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.closed {
			return true
		}
		dirtied, err := w.readLocked()
		if err != nil && w.failed == nil {
			w.failed = err
		}
		if dirtied || w.failed != nil {
			select {
			case w.wake <- struct{}{}:
			default:
			}
		}
		return w.failed != nil // park until readable, unless broken
	})
}

// stats reports the live watch count and queue overflows so far.
func (w *watcher) stats() (watches int, overflows uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.paths), w.overflows
}

// close releases the descriptor and ends the wake goroutine.
func (w *watcher) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	return w.file.Close()
}
