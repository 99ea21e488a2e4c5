//go:build linux

package catalog

import (
	"fmt"
	"os"
	"syscall"
)

// changeTime returns fi's inode change time (Unix ns) and inode number.
func changeTime(fi os.FileInfo) (change int64, ino uint64, ok bool) {
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok {
		return 0, 0, false
	}
	return int64(st.Ctim.Sec)*1e9 + int64(st.Ctim.Nsec), uint64(st.Ino), true
}

// remoteFS are the statfs magic numbers of filesystems whose content can
// change without the local kernel seeing it: inotify stays silent, and
// cached attributes can hide a remote write from stat.
var remoteFS = map[uint32]string{
	0x6969:     "nfs",
	0x517b:     "smb",
	0xff534d42: "cifs",
	0xfe534d42: "smb2",
	0x65735546: "fuse", // sshfs, virtiofs shares, ...
	0x01021997: "9p",
	0x00c36400: "ceph",
	0x5346414f: "afs",
}

// RemoteFilesystem names the network filesystem path lives on, or returns
// "" for a local one. Watchers and stat-based caches must not trust such
// trees: their changes need not pass through this kernel.
func RemoteFilesystem(path string) (string, error) {
	var fs syscall.Statfs_t
	if err := syscall.Statfs(path, &fs); err != nil {
		return "", fmt.Errorf("catalog: statfs %s: %w", path, err)
	}
	return remoteFS[uint32(fs.Type)], nil
}
