package catalog

// Tree-level ingestion: the parallel native-parse path and the rootpack
// sidecar fast path LoadTree picks between.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/obs"
	"repro/internal/store"
)

// ArchiveMode selects how LoadTree uses rootpack sidecars.
type ArchiveMode int

const (
	// ArchiveAuto (the default) reads a sidecar archive when its recorded
	// source hash matches the tree, and compiles one after a native parse —
	// compile-on-ingest caching.
	ArchiveAuto ArchiveMode = iota
	// ArchiveOff always parses natively and never reads or writes sidecars.
	ArchiveOff
)

// DefaultArchiveName is the sidecar file LoadTree maintains at the tree
// root when Options.ArchivePath is empty. It is a plain file, so tree
// scanners (which only descend provider directories) never mistake it for
// a provider; nor the directory digests saved beside it, under the same
// name plus ".digests".
const DefaultArchiveName = ".rootpack"

// TreeInfo reports how a tree was loaded.
type TreeInfo struct {
	// FromArchive is true when the database came from a sidecar archive
	// instead of native parsers.
	FromArchive bool
	// ArchivePath is the sidecar consulted (empty under ArchiveOff).
	ArchivePath string
	// TreeHash is the source tree's content hash — the staleness key.
	TreeHash [archive.HashLen]byte
	// ContentHash is the archive content hash of the loaded database, when
	// known (read from or written to the sidecar).
	ContentHash [archive.HashLen]byte
	// DatabaseHash is archive.HashDatabase of the loaded database, when
	// known (zero otherwise): read off the sidecar's bytes, or forked from
	// the compile that wrote it, never by a separate encode.
	DatabaseHash [archive.HashLen]byte
	// Digest holds the directory digests behind TreeHash (nil under
	// ArchiveOff), ready for RefreshArchiveDigestCtx.
	Digest *TreeDigest
}

// versionJob is one version directory scheduled for ingestion.
type versionJob struct {
	provider string
	version  string
	dir      string
	date     time.Time
}

func (j versionJob) key() string { return j.provider + "/" + j.version }

// listVersionDirs enumerates the tree's version directories in the
// deterministic (provider, version) lexical order every loader shares.
func listVersionDirs(root string) ([]versionJob, error) {
	provs, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	var jobs []versionJob
	for _, prov := range provs {
		if !prov.IsDir() {
			continue
		}
		provDir := filepath.Join(root, prov.Name())
		versions, err := os.ReadDir(provDir)
		if err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
		for _, v := range versions {
			if !v.IsDir() {
				continue
			}
			dir := filepath.Join(provDir, v.Name())
			jobs = append(jobs, versionJob{
				provider: prov.Name(),
				version:  v.Name(),
				dir:      dir,
				date:     dateForVersion(dir, v.Name()),
			})
		}
	}
	return jobs, nil
}

// loadJobs parses every version directory with a bounded worker pool and
// assembles the database in job order, so the result (and any error
// surfaced) is identical to a sequential load regardless of scheduling.
func loadJobs(jobs []versionJob, opts Options) (*store.Database, error) {
	snaps := make([]*store.Snapshot, len(jobs))
	errs := make([]error, len(jobs))
	parallelFor(len(jobs), func(i int) {
		snaps[i], _, errs[i] = LoadSnapshot(jobs[i].dir, jobs[i].provider, jobs[i].version, jobs[i].date, opts)
	})

	db := store.NewDatabase()
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, fmt.Errorf("catalog: %s/%s: %w", j.provider, j.version, errs[i])
		}
		if err := db.AddSnapshot(snaps[i]); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// parallelFor calls fn for every index in [0, n) on up to GOMAXPROCS
// goroutines and returns when all calls have.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// TreeHash computes the content hash of a snapshot tree: every provider,
// version, resolved snapshot date, file name, size and byte of content, in
// the same deterministic order the loader ingests. It is the staleness key
// a sidecar archive records as its source hash — any change that could
// alter the loaded database changes the hash.
//
// The hash is a two-level Merkle tree: each version directory's files hash
// to a directory digest (GOMAXPROCS directories at a time), and the tree
// hash covers every directory's provider, version, date and digest. A
// TreeDigest keeps the directory digests between calls, so rehashing after
// a change reads only the directories that changed.
func TreeHash(root string) ([archive.HashLen]byte, error) {
	return NewTreeDigest(root).Hash()
}

// TreeDigest is a tree hash that remembers its directory digests. Hash
// reuses the digest of every version directory still present, and reads
// only the rest. It is not safe for concurrent use.
//
// A remembered digest describes the directory as it was read, so the
// caller rereads exactly the directories it re-parses, just before it
// parses them: a digest is then never newer than the parse the caller
// holds, and a sidecar written under the resulting hash never claims
// content its database lacks. A change the caller never re-parsed surfaces
// at the next cold start as a hash mismatch, that is, as a re-parse, never
// as a stale load.
//
// The digests LoadTreeInfo computes persist beside the sidecar (see
// digests.go), so a cold start re-reads only directories whose files'
// stat data moved since they were digested.
type TreeDigest struct {
	root   string
	path   string               // where the digests persist; "" keeps them in memory
	dirs   map[string]dirDigest // "provider/version" → digest
	saved  map[string]dirDigest // read from path; each trusted once its stamp re-checks
	hashed int                  // directories read over the digest's life
	dirty  bool                 // dirs changed since they were last saved
}

// NewTreeDigest returns an empty digest cache over the tree at root.
func NewTreeDigest(root string) *TreeDigest {
	return &TreeDigest{root: root, dirs: make(map[string]dirDigest)}
}

// Reread digests one version directory again now. A caller about to
// re-parse the directory rereads it first, so a write landing between the
// two leaves the digest older than the parse — a stale sidecar the next
// cold start catches — never newer. A directory that cannot be read is
// forgotten, and read at the next Hash.
func (d *TreeDigest) Reread(provider, version string) {
	key := provider + "/" + version
	delete(d.saved, key)
	d.dirty = true
	dd, err := digestDir(filepath.Join(d.root, provider, version))
	if err != nil {
		delete(d.dirs, key)
		return
	}
	d.dirs[key] = dd
	d.hashed++
}

// Hashed reports how many directory digests the cache has computed.
func (d *TreeDigest) Hashed() int { return d.hashed }

// Hash returns the tree hash, reading only the version directories whose
// digest is not remembered. Directories gone from the tree are forgotten.
// With a persistence path, changed digests are saved (best-effort: a
// read-only tree only loses the shortcut at its next cold start).
func (d *TreeDigest) Hash() ([archive.HashLen]byte, error) {
	jobs, err := listVersionDirs(d.root)
	if err != nil {
		return [archive.HashLen]byte{}, err
	}
	return d.hashJobs(jobs)
}

func (d *TreeDigest) hashJobs(jobs []versionJob) ([archive.HashLen]byte, error) {
	var out [archive.HashLen]byte
	var missing []int
	live := make(map[string]bool, len(jobs))
	for i, j := range jobs {
		live[j.key()] = true
		if _, ok := d.dirs[j.key()]; !ok {
			missing = append(missing, i)
		}
	}
	changed := d.dirty
	for key := range d.dirs {
		if !live[key] {
			delete(d.dirs, key)
			changed = true
		}
	}
	digests := make([]dirDigest, len(missing))
	read := make([]bool, len(missing))
	errs := make([]error, len(missing))
	parallelFor(len(missing), func(i int) {
		j := jobs[missing[i]]
		if saved, ok := d.saved[j.key()]; ok && saved.stillValid(j.dir) {
			digests[i] = saved
			return
		}
		digests[i], errs[i] = digestDir(j.dir)
		read[i] = true
	})
	reused := 0
	for i, idx := range missing {
		if errs[i] != nil {
			return out, errs[i]
		}
		d.dirs[jobs[idx].key()] = digests[i]
		if read[i] {
			d.hashed++
			changed = true
		} else {
			reused++
		}
	}
	if reused != len(d.saved) {
		changed = true // saved digests of directories gone or changed
	}
	d.saved = nil

	h := sha256.New()
	for _, j := range jobs {
		fmt.Fprintf(h, "s\x00%s\x00%s\x00%d:%d\x00", j.provider, j.version, j.date.Unix(), j.date.Nanosecond())
		digest := d.dirs[j.key()]
		h.Write(digest.sum[:])
	}
	h.Sum(out[:0])
	if changed && d.path != "" && d.save() == nil {
		d.dirty = false
	}
	return out, nil
}

// digestDir hashes one version directory's files, the unit a tree hash is
// built from, stamping it with their stat data first.
func digestDir(dir string) (dirDigest, error) {
	dd := dirDigest{taken: time.Now().UnixNano()}
	// A directory that cannot be stamped keeps the zero stamp, which is
	// never trusted from disk; hashDir reports any real read failure.
	dd.stamp, dd.newest, _ = statStamp(dir)
	h := sha256.New()
	if err := hashDir(h, dir, 1); err != nil {
		return dd, err
	}
	h.Sum(dd.sum[:0])
	return dd, nil
}

// hashDir feeds dir's files (and one nested directory level — the deepest
// any supported format goes, e.g. authroot's certs/) into h in lexical
// order.
func hashDir(h io.Writer, dir string, depth int) error {
	des, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	for _, de := range des {
		path := filepath.Join(dir, de.Name())
		if de.IsDir() {
			if depth > 0 {
				fmt.Fprintf(h, "d\x00%s\x00", de.Name())
				if err := hashDir(h, path, depth-1); err != nil {
					return err
				}
			}
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("catalog: %w", err)
		}
		fmt.Fprintf(h, "f\x00%s\x00%d\x00", de.Name(), len(data))
		h.Write(data)
	}
	return nil
}

// LoadVersionDir ingests a single <root>/<provider>/<version>/ directory
// with the same date resolution LoadTree applies — the unit of work an
// incremental reload re-parses for a changed snapshot.
func LoadVersionDir(root, provider, version string, opts Options) (*store.Snapshot, Format, error) {
	return LoadVersionDirCtx(context.Background(), root, provider, version, opts)
}

// LoadVersionDirCtx is LoadVersionDir under a "catalog.parse" span naming
// the snapshot being re-parsed — the incremental reload's unit of work in
// a rescan trace.
func LoadVersionDirCtx(ctx context.Context, root, provider, version string, opts Options) (*store.Snapshot, Format, error) {
	_, span := obs.StartSpan(ctx, "catalog.parse")
	defer span.End()
	span.SetAttr("snapshot", provider+"/"+version)
	dir := filepath.Join(root, provider, version)
	snap, format, err := LoadSnapshot(dir, provider, version, dateForVersion(dir, version), opts)
	if err != nil {
		span.SetAttr("error", err.Error())
	} else {
		span.SetAttr("format", string(format))
	}
	return snap, format, err
}

// LoadTreeInfo is LoadTree plus a report of how the tree was loaded:
// whether the sidecar archive served the database, and under which hashes.
func LoadTreeInfo(root string, opts Options) (*store.Database, *TreeInfo, error) {
	return LoadTreeInfoCtx(context.Background(), root, opts)
}

// LoadTreeInfoCtx is LoadTreeInfo with each phase of the load — tree
// hashing, the sidecar fast path, the parallel native parse, the
// compile-on-ingest write — recorded as a child span of whatever trace
// rides in ctx. With no trace in ctx every span is inert.
func LoadTreeInfoCtx(ctx context.Context, root string, opts Options) (*store.Database, *TreeInfo, error) {
	opts = opts.withDefaults()
	jobs, err := listVersionDirs(root)
	if err != nil {
		return nil, nil, err
	}
	info := &TreeInfo{}
	if opts.Archive == ArchiveOff {
		db, err := loadJobsCtx(ctx, jobs, opts)
		return db, info, err
	}

	info.ArchivePath = opts.ArchivePath
	if info.ArchivePath == "" {
		info.ArchivePath = filepath.Join(root, DefaultArchiveName)
	}
	_, hashSpan := obs.StartSpan(ctx, "catalog.hash_tree")
	hashSpan.SetAttr("dirs", strconv.Itoa(len(jobs)))
	info.Digest = openTreeDigest(root, info.ArchivePath+digestsSuffix)
	th, err := info.Digest.hashJobs(jobs)
	hashSpan.End()
	if err != nil {
		return nil, nil, err
	}
	info.TreeHash = th

	if db, hs, ok := tryArchive(ctx, info.ArchivePath, th); ok {
		info.FromArchive = true
		info.ContentHash, info.DatabaseHash = hs.Content, hs.Database
		return db, info, nil
	}

	db, err := loadJobsCtx(ctx, jobs, opts)
	if err != nil {
		return nil, nil, err
	}
	// Compile-on-ingest: cache what we just parsed. Best-effort — a
	// read-only tree still loads, it just stays on the slow path.
	if hs, werr := archive.WriteFileHashesCtx(ctx, info.ArchivePath, db, th); werr == nil {
		info.ContentHash, info.DatabaseHash = hs.Content, hs.Database
	}
	return db, info, nil
}

// loadJobsCtx runs the parallel native parse under a "catalog.parse" span.
func loadJobsCtx(ctx context.Context, jobs []versionJob, opts Options) (*store.Database, error) {
	_, span := obs.StartSpan(ctx, "catalog.parse")
	defer span.End()
	span.SetAttr("snapshots", strconv.Itoa(len(jobs)))
	db, err := loadJobs(jobs, opts)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	return db, err
}

// tryArchive loads a sidecar if it exists and matches the tree hash. Any
// failure — missing file, stale source hash, corruption, I/O error — is a
// cache miss, never an error: the native parsers are the fallback.
func tryArchive(ctx context.Context, path string, want [archive.HashLen]byte) (*store.Database, archive.Hashes, bool) {
	var hs archive.Hashes
	r, err := archive.Open(path)
	if err != nil {
		return nil, hs, false
	}
	defer r.Close()
	if r.SourceHash() != want {
		return nil, hs, false
	}
	db, err := r.DatabaseCtx(ctx)
	if err != nil {
		return nil, hs, false
	}
	if hs.Database, err = r.DatabaseHash(); err != nil {
		return nil, hs, false
	}
	hs.Content = r.ContentHash()
	return db, hs, true
}

// RefreshArchive recompiles the sidecar archive for root from an
// already-loaded database (an incremental reloader's cheap way to keep
// cold starts fast without re-parsing). No-op under ArchiveOff.
func RefreshArchive(root string, db *store.Database, opts Options) error {
	return RefreshArchiveCtx(context.Background(), root, db, opts)
}

// RefreshArchiveCtx is RefreshArchive with the tree hash and compile
// recorded as spans of the surrounding trace.
func RefreshArchiveCtx(ctx context.Context, root string, db *store.Database, opts Options) error {
	_, err := RefreshArchiveDigestCtx(ctx, root, db, NewTreeDigest(root), opts)
	return err
}

// RefreshArchiveDigestCtx is RefreshArchiveCtx hashing the tree through d,
// so only directories d does not remember are read — an incremental
// reloader rereads the directories it re-parses and pays for nothing
// else. It returns the compiled database's hash (archive.HashDatabase's
// value), a by-product of the compile; zero under ArchiveOff.
func RefreshArchiveDigestCtx(ctx context.Context, root string, db *store.Database, d *TreeDigest, opts Options) ([archive.HashLen]byte, error) {
	var zero [archive.HashLen]byte
	if opts.Archive == ArchiveOff {
		return zero, nil
	}
	_, hashSpan := obs.StartSpan(ctx, "catalog.hash_tree")
	before := d.Hashed()
	th, err := d.Hash()
	hashSpan.SetAttr("dirs_read", strconv.Itoa(d.Hashed()-before))
	hashSpan.End()
	if err != nil {
		return zero, err
	}
	path := opts.ArchivePath
	if path == "" {
		path = filepath.Join(root, DefaultArchiveName)
	}
	hs, err := archive.WriteFileHashesCtx(ctx, path, db, th)
	return hs.Database, err
}
