//go:build !linux

package catalog

import "os"

// changeTime reports no change time off Linux, so saved digests are never
// trusted there and every cold start reads the whole tree.
func changeTime(os.FileInfo) (change int64, ino uint64, ok bool) { return 0, 0, false }

// RemoteFilesystem cannot tell off Linux and reports every tree local;
// nothing there trusts stat data or watches anyway.
func RemoteFilesystem(string) (string, error) { return "", nil }
