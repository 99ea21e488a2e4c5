package catalog

// Persisted directory digests. A cold start must prove the sidecar still
// describes the tree, and reading every byte of a large tree is most of a
// cold start. So each directory digest is saved beside the sidecar with
// the stamp ScanTree gave its files' stat data — names, types, sizes,
// inode numbers, modification and change times — and a later load trusts
// a saved digest only while its scan stamps the directory the same. The
// change time is what makes this safe: the kernel sets it to the current
// time on every write, rename and attribute change, including the utimes
// call that can forge an mtime, so content cannot change without the
// stamp moving.
//
// One window remains: a write in the same timestamp tick as the write
// before it can leave the change time where it was. A digest is therefore
// trusted only if its directory's newest change time was well older than
// the stamp — the rule git applies to its index. Directories written just
// before they were digested are simply read again at the next load. Trees
// on network filesystems, whose cached attributes can hide a remote
// write, never save or trust digests; nor do platforms without change
// times.

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/archive"
)

// digestsSuffix names the digest file beside a sidecar archive.
const digestsSuffix = ".digests"

// racyWindow is how much older than its stamp a directory's newest change
// time must be for a saved digest of it to be trusted: far above a kernel
// timestamp tick (at most 10 ms) on filesystems with sub-second
// timestamps, and above the coarsest granularity (2 s) on the others,
// recognised by a whole-second change time.
func racyWindow(newest int64) int64 {
	if newest%int64(time.Second) == 0 {
		return int64(3 * time.Second)
	}
	return int64(100 * time.Millisecond)
}

// dirDigest is one version directory's content digest and the stat stamp
// the scan that preceded the read gave its files.
type dirDigest struct {
	sum    [archive.HashLen]byte
	stamp  [archive.HashLen]byte
	newest int64 // newest change time the stamp saw, Unix ns
	taken  int64 // wall clock just before the stamp, Unix ns
}

// stillValid reports whether a digest read from disk may stand in for
// reading v again: it was stamped clear of the racy window, and v's scan
// stamped the same.
func (dd dirDigest) stillValid(v VersionDir) bool {
	return dd.newest+racyWindow(dd.newest) < dd.taken && dd.stamp == v.Stamp
}

// digestFile is the on-disk form of a TreeDigest.
type digestFile struct {
	Format int                     `json:"format"`
	Dirs   map[string]digestRecord `json:"dirs"`
}

type digestRecord struct {
	Sum    string `json:"sum"`
	Stamp  string `json:"stamp"`
	Newest int64  `json:"newest"`
	Taken  int64  `json:"taken"`
}

const digestFormat = 1

// openTreeDigest returns a digest cache over root that persists at path,
// seeded with the digests saved there. A missing, unreadable or foreign
// file seeds nothing: every directory is then read, as without a cache.
func openTreeDigest(root, path string) *TreeDigest {
	d := NewTreeDigest(root)
	if remote, err := RemoteFilesystem(root); !changeTimes || err != nil || remote != "" {
		return d
	}
	d.path = path
	data, err := os.ReadFile(path)
	if err != nil {
		return d
	}
	var f digestFile
	if json.Unmarshal(data, &f) != nil || f.Format != digestFormat {
		return d
	}
	d.saved = make(map[string]dirDigest, len(f.Dirs))
	for key, r := range f.Dirs {
		var dd dirDigest
		if decodeHash(r.Sum, &dd.sum) && decodeHash(r.Stamp, &dd.stamp) {
			dd.newest, dd.taken = r.Newest, r.Taken
			d.saved[key] = dd
		}
	}
	return d
}

func decodeHash(s string, out *[archive.HashLen]byte) bool {
	b, err := hex.DecodeString(s)
	return err == nil && copy(out[:], b) == archive.HashLen && len(b) == archive.HashLen
}

// save writes the remembered digests to d.path atomically.
func (d *TreeDigest) save() error {
	f := digestFile{Format: digestFormat, Dirs: make(map[string]digestRecord, len(d.dirs))}
	for key, dd := range d.dirs {
		f.Dirs[key] = digestRecord{
			Sum:    hex.EncodeToString(dd.sum[:]),
			Stamp:  hex.EncodeToString(dd.stamp[:]),
			Newest: dd.newest,
			Taken:  dd.taken,
		}
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	dir, base := filepath.Split(d.path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), d.path)
}
