//go:build !linux

package tracker

import "errors"

// Without inotify every DirSource polls: newWatcher always fails and the
// watcher methods are never reached.

var errWatchFailed = errors.New("tracker: inotify is linux-only")

type watcher struct{}

func newWatcher(string) (*watcher, error) { return nil, errWatchFailed }

func (*watcher) take() (changes, error)                 { return changes{}, errWatchFailed }
func (*watcher) notify() <-chan struct{}                { return nil }
func (*watcher) stats() (watches int, overflows uint64) { return 0, 0 }
func (*watcher) close() error                           { return nil }
