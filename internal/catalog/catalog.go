// Package catalog ingests root-store files from disk into the analysis
// database — the scraper side of the paper's methodology (§3.1: "we parse
// these formats and consolidate them into a single database"). It
// auto-detects each snapshot's format from its files, so a directory tree
// of collected releases (like cmd/synthgen's output, or a real archive of
// certdata.txt / authroot.stl / cacerts files) loads with one call.
//
// Expected layout: <root>/<provider>/<version>/<files...>, where each
// version directory holds one snapshot in any supported format. Snapshot
// dates come from a manifest file, or are derived from the version
// directory's name when it parses as a date, or fall back to file mtime.
package catalog

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/applestore"
	"repro/internal/authroot"
	"repro/internal/certdata"
	"repro/internal/ctlog"
	"repro/internal/jks"
	"repro/internal/manifest"
	"repro/internal/nodecerts"
	"repro/internal/pemstore"
	"repro/internal/store"
)

// TreeLayout documents the snapshot-tree layout every disk-facing tool in
// this module shares — catalog.LoadTree ingests it, cmd/synthgen writes it,
// and internal/tracker watches it. Keep cmd help texts pointing here rather
// than restating the shape.
const TreeLayout = `<root>/<provider>/<version>/<store files>
  one snapshot per version directory, auto-detected format
  (certdata.txt, authroot.stl, cacerts.jks, node_root_certs.h,
  tls-ca-bundle.pem / purpose-split bundles, Apple roots dir,
  CT get-roots.json, tpm-roots.yaml manifest bundles);
  version directories named like dates (2006-01-02, 20060102, 2006-01)
  date the snapshot, otherwise file mtime is used; an optional
  ct-log-list.json at the tree root maps CT providers to operators`

// Format identifies a detected on-disk root-store format.
type Format string

// Detected formats.
const (
	FormatCertdata     Format = "certdata"
	FormatAuthroot     Format = "authroot"
	FormatJKS          Format = "jks"
	FormatNodeHeader   Format = "node-header"
	FormatPEMBundle    Format = "pem-bundle"
	FormatPurposeSplit Format = "purpose-split"
	FormatAppleDir     Format = "apple-dir"
	FormatCTRoots      Format = "ct-roots"
	FormatManifest     Format = "manifest"
	FormatUnknown      Format = ""
)

// Kind returns the trust-ecosystem kind snapshots of this format belong
// to. This is the single place format knowledge turns into a kind tag;
// everything downstream of LoadSnapshot branches on the kind (or, mostly,
// on nothing at all).
func (f Format) Kind() store.Kind {
	switch f {
	case FormatCTRoots:
		return store.KindCT
	case FormatManifest:
		return store.KindManifest
	default:
		return store.KindTLS
	}
}

// ErrAmbiguousFormat marks a snapshot directory whose files match more
// than one format probe — say, a certdata.txt sitting next to an
// authroot.stl. Earlier versions of DetectFormat silently picked whichever
// format the detection switch listed first, which made ingest results
// depend on probe ordering; now the caller gets told and decides. Test
// with errors.Is.
var ErrAmbiguousFormat = errors.New("catalog: ambiguous snapshot format")

// Options tunes ingestion.
type Options struct {
	// JKSPassword verifies keystore integrity (default "changeit").
	JKSPassword string
	// BundlePurposes are the purposes a bare PEM bundle grants (default
	// ServerAuth only, the tls-ca-bundle.pem semantics).
	BundlePurposes []store.Purpose
	// Archive selects sidecar caching: ArchiveAuto (default) serves
	// LoadTree from a .rootpack sidecar when fresh and compiles one after
	// each native parse; ArchiveOff disables both.
	Archive ArchiveMode
	// ArchivePath overrides the sidecar location (default
	// <root>/.rootpack).
	ArchivePath string
}

func (o Options) withDefaults() Options {
	if o.JKSPassword == "" {
		o.JKSPassword = "changeit"
	}
	if len(o.BundlePurposes) == 0 {
		o.BundlePurposes = []store.Purpose{store.ServerAuth}
	}
	return o
}

// DetectFormat inspects a snapshot directory and reports its format.
//
// Every format's marker files are probed independently; exactly one probe
// may claim the directory. When two or more match, DetectFormat returns an
// error wrapping ErrAmbiguousFormat that names all claimants — it never
// silently picks one, because which parser runs decides what trust data
// comes out. Two deliberate exceptions to strict independence:
//
//   - The PEM family is one probe. A purpose-split layout is a PEM bundle
//     plus more files, so "tls-ca-bundle.pem with email/objsign siblings"
//     resolves to purpose-split by specificity inside the probe, not by
//     inter-probe priority.
//   - The extension heuristics (a directory of bare .cer files → Apple,
//     any .pem/.crt → PEM bundle) are fallbacks that only fire when no
//     marker-file probe matched at all; they are how unlabeled scrape dirs
//     still ingest, and too weak to veto a real marker.
func DetectFormat(dir string) (Format, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return FormatUnknown, fmt.Errorf("catalog: %w", err)
	}
	names := map[string]bool{}
	var pemCount, cerCount int
	hasManifest := false
	for _, de := range des {
		if de.IsDir() {
			names[de.Name()+"/"] = true
			continue
		}
		names[de.Name()] = true
		if manifest.IsManifestName(de.Name()) {
			hasManifest = true
		}
		switch strings.ToLower(filepath.Ext(de.Name())) {
		case ".pem", ".crt":
			pemCount++
		case ".cer":
			cerCount++
		}
	}

	pemFamily := func() Format {
		if names["tls-ca-bundle.pem"] && (names["email-ca-bundle.pem"] || names["objsign-ca-bundle.pem"]) {
			return FormatPurposeSplit
		}
		return FormatPEMBundle
	}
	probes := []struct {
		format  Format
		matched bool
	}{
		{FormatCertdata, names["certdata.txt"]},
		{FormatAuthroot, names[authroot.STLName]},
		{FormatNodeHeader, names["node_root_certs.h"]},
		{FormatJKS, hasJKS(des)},
		{pemFamily(), names["tls-ca-bundle.pem"] || names["cert.pem"] || names["ca-certificates.crt"]},
		{FormatAppleDir, names[applestore.TrustSettingsName]},
		{FormatCTRoots, names[ctlog.GetRootsName]},
		{FormatManifest, hasManifest},
	}
	var matched []Format
	for _, p := range probes {
		if p.matched {
			matched = append(matched, p.format)
		}
	}
	switch len(matched) {
	case 1:
		return matched[0], nil
	case 0:
		// Marker-free fallbacks.
		switch {
		case cerCount > 0 && pemCount == 0:
			return FormatAppleDir, nil
		case pemCount > 0:
			return FormatPEMBundle, nil
		}
		return FormatUnknown, fmt.Errorf("catalog: no recognizable root store in %s", dir)
	}
	strs := make([]string, len(matched))
	for i, f := range matched {
		strs[i] = string(f)
	}
	sort.Strings(strs)
	return FormatUnknown, fmt.Errorf("%w: %s matches %s", ErrAmbiguousFormat, dir, strings.Join(strs, ", "))
}

func hasJKS(des []os.DirEntry) bool {
	for _, de := range des {
		if !de.IsDir() && (strings.HasSuffix(de.Name(), ".jks") || de.Name() == "cacerts") {
			return true
		}
	}
	return false
}

// LoadSnapshot ingests one snapshot directory.
func LoadSnapshot(dir, provider, version string, date time.Time, opts Options) (*store.Snapshot, Format, error) {
	opts = opts.withDefaults()
	format, err := DetectFormat(dir)
	if err != nil {
		return nil, FormatUnknown, err
	}
	var entries []*store.TrustEntry
	switch format {
	case FormatCertdata:
		f, err := os.Open(filepath.Join(dir, "certdata.txt"))
		if err != nil {
			return nil, format, fmt.Errorf("catalog: %w", err)
		}
		res, perr := certdata.Parse(f)
		f.Close()
		if perr != nil {
			return nil, format, perr
		}
		entries = res.Entries
	case FormatAuthroot:
		es, _, err := authroot.ReadBundle(dir)
		if err != nil {
			return nil, format, err
		}
		entries = es
	case FormatNodeHeader:
		f, err := os.Open(filepath.Join(dir, "node_root_certs.h"))
		if err != nil {
			return nil, format, fmt.Errorf("catalog: %w", err)
		}
		es, perr := nodecerts.Parse(f)
		f.Close()
		if perr != nil {
			return nil, format, perr
		}
		entries = es
	case FormatJKS:
		path, err := jksPath(dir)
		if err != nil {
			return nil, format, err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, format, fmt.Errorf("catalog: %w", err)
		}
		ks, err := jks.Parse(data, opts.JKSPassword)
		if err != nil {
			return nil, format, err
		}
		// Java's cacerts conflates TLS, email and code signing.
		entries, err = ks.ToEntries(store.ServerAuth, store.EmailProtection, store.CodeSigning)
		if err != nil {
			return nil, format, err
		}
	case FormatPurposeSplit:
		es, err := pemstore.ReadPurposeBundles(dir)
		if err != nil {
			return nil, format, err
		}
		entries = es
	case FormatPEMBundle:
		path, err := pemPath(dir)
		if err != nil {
			return nil, format, err
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, format, fmt.Errorf("catalog: %w", err)
		}
		es, perr := pemstore.ParseBundle(f, opts.BundlePurposes...)
		f.Close()
		if perr != nil {
			return nil, format, perr
		}
		entries = es
	case FormatAppleDir:
		es, err := applestore.ReadDir(dir)
		if err != nil {
			return nil, format, err
		}
		entries = es
	case FormatCTRoots:
		es, err := ctlog.ReadDir(dir)
		if err != nil {
			return nil, format, err
		}
		entries = es
	case FormatManifest:
		es, err := manifest.ReadDir(dir)
		if err != nil {
			return nil, format, err
		}
		entries = es
	}
	s := store.NewSnapshot(provider, version, date)
	s.Kind = format.Kind()
	for _, e := range entries {
		s.Add(e)
	}
	return s, format, nil
}

func jksPath(dir string) (string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("catalog: %w", err)
	}
	for _, de := range des {
		if !de.IsDir() && (strings.HasSuffix(de.Name(), ".jks") || de.Name() == "cacerts") {
			return filepath.Join(dir, de.Name()), nil
		}
	}
	return "", fmt.Errorf("catalog: no JKS file in %s", dir)
}

func pemPath(dir string) (string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("catalog: %w", err)
	}
	// Preferred canonical names first.
	for _, name := range []string{"tls-ca-bundle.pem", "cert.pem", "ca-certificates.crt"} {
		for _, de := range des {
			if de.Name() == name {
				return filepath.Join(dir, name), nil
			}
		}
	}
	for _, de := range des {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".pem") {
			return filepath.Join(dir, de.Name()), nil
		}
	}
	return "", fmt.Errorf("catalog: no PEM bundle in %s", dir)
}

// LoadTree ingests a <root>/<provider>/<version>/ tree into a database.
// Version directories named like dates (2006-01-02 or 20060102) provide
// snapshot dates; otherwise file modification time is used. Snapshots are
// parsed concurrently (bounded by GOMAXPROCS) and assembled in lexical
// (provider, version) order, so the result is deterministic. Under
// Options.Archive's default ArchiveAuto mode, a fresh .rootpack sidecar
// short-circuits parsing entirely, and a successful parse compiles one.
func LoadTree(root string, opts Options) (*store.Database, error) {
	db, _, err := LoadTreeInfo(root, opts)
	return db, err
}

// LoadTreeCtx is LoadTree with the load's phases recorded as spans of the
// trace carried in ctx (see LoadTreeInfoCtx).
func LoadTreeCtx(ctx context.Context, root string, opts Options) (*store.Database, error) {
	db, _, err := LoadTreeInfoCtx(ctx, root, opts)
	return db, err
}

func dateForVersion(dir, version string) time.Time {
	fi, _ := os.Stat(dir)
	return versionDate(version, fi)
}

// versionDate dates a snapshot by its version name when that parses as a
// date, else by its directory's mtime (fi; the zero time when nil).
func versionDate(version string, fi os.FileInfo) time.Time {
	for _, layout := range []string{"2006-01-02", "20060102", "2006-01"} {
		if t, err := time.Parse(layout, version); err == nil {
			return t
		}
	}
	if fi == nil {
		return time.Time{}
	}
	return fi.ModTime().UTC()
}
