//go:build !linux

package catalog

import "os"

// changeTimes is false off Linux: stamps there hash names, types, sizes
// and mtimes, which still catch what a poll must see, but an mtime can be
// forged, so saved digests are never trusted and every cold start reads
// the whole tree.
const changeTimes = false

// changeTime stands the mtime in for the change time, and no inode.
func changeTime(fi os.FileInfo) (change int64, ino uint64) { return fi.ModTime().UnixNano(), 0 }

// RemoteFilesystem cannot tell off Linux and reports every tree local;
// nothing there trusts stat data or watches anyway.
func RemoteFilesystem(string) (string, error) { return "", nil }
