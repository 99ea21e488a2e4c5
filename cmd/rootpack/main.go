// Command rootpack compiles, inspects and audits rootpack archives — the
// content-addressed binary snapshot format internal/archive implements and
// trustd/rootwatch reload from.
//
// Usage:
//
//	rootpack build -tree DIR [-o FILE]     compile a snapshot tree
//	rootpack inspect FILE [-json]          sections, dedup ratio, providers
//	rootpack verify FILE                   checksums + lossless round-trip
//
// build ingests the tree with the shared catalog parsers and writes the
// archive atomically (default <tree>/.rootpack — the sidecar location the
// loaders look for). inspect decodes only the footer and section
// inventories. verify is the paranoid path: it recomputes the whole-file
// content hash, checks every section checksum, decodes the database,
// re-encodes it and demands the bytes round-trip to the identical content
// hash — proving the file is undamaged AND canonical.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"repro/internal/archive"
	"repro/internal/catalog"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "build":
		err = runBuild(args[1:])
	case "inspect":
		err = runInspect(args[1:])
	case "verify":
		err = runVerify(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "rootpack: unknown command %q\n", args[0])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rootpack: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  rootpack build -tree DIR [-o FILE]   compile a snapshot tree to an archive
  rootpack inspect FILE [-json]        print sections, dedup ratio, providers
  rootpack verify FILE                 full checksum + round-trip audit

The tree layout is the module's shared snapshot layout:
%s
`, catalog.TreeLayout)
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	tree := fs.String("tree", "", "snapshot tree to compile (required)")
	out := fs.String("o", "", "output archive path (default <tree>/.rootpack)")
	jksPassword := fs.String("jks-password", "", "JKS keystore password (default changeit)")
	fs.Parse(args)
	if *tree == "" {
		return fmt.Errorf("build: -tree is required")
	}
	path := *out
	if path == "" {
		path = filepath.Join(*tree, catalog.DefaultArchiveName)
	}

	start := time.Now()
	// Parse natively even if a sidecar exists: build is the tool that
	// refreshes sidecars, so it must not trust one.
	db, err := catalog.LoadTree(*tree, catalog.Options{
		JKSPassword: *jksPassword,
		Archive:     catalog.ArchiveOff,
	})
	if err != nil {
		return err
	}
	parsed := time.Since(start)

	th, err := catalog.TreeHash(*tree)
	if err != nil {
		return err
	}
	contentHash, err := archive.WriteFile(path, db, th)
	if err != nil {
		return err
	}
	fmt.Printf("built %s\n", path)
	fmt.Printf("  snapshots    %d across %d providers (parsed in %s)\n",
		db.TotalSnapshots(), len(db.Providers()), parsed.Round(time.Millisecond))
	fmt.Printf("  content hash %x\n", contentHash)
	return printStatsFor(path, false)
}

func runInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the stats as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect: want exactly one archive path")
	}
	return printStatsFor(fs.Arg(0), *asJSON)
}

func printStatsFor(path string, asJSON bool) error {
	r, err := archive.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	st, err := r.Stats()
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}

	fmt.Printf("rootpack v%d, %d bytes\n", st.FormatVersion, st.FileSize)
	fmt.Printf("  source hash  %s\n", st.SourceHash)
	fmt.Printf("  content hash %s\n", st.ContentHash)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  SECTION\tOFFSET\tBYTES\tSHA-256")
	for _, sec := range st.Sections {
		fmt.Fprintf(w, "  %s\t%d\t%d\t%s…\n", sec.Name, sec.Offset, sec.Length, sec.SHA256[:16])
	}
	w.Flush()
	fmt.Printf("  %d unique certs (%d pool bytes) referenced by %d entries — dedup ratio %.2fx\n",
		st.UniqueCerts, st.PoolBytes, st.TotalEntries, st.DedupRatio())
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  PROVIDER\tSNAPSHOTS\tENTRIES")
	for _, p := range st.Providers {
		fmt.Fprintf(w, "  %s\t%d\t%d\n", p.Name, p.Snapshots, p.Entries)
	}
	w.Flush()
	return nil
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("verify: want exactly one archive path")
	}
	path := fs.Arg(0)
	r, err := archive.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	start := time.Now()
	if err := r.Verify(); err != nil {
		return err
	}
	fmt.Printf("%s: OK (content hash, section checksums and round-trip verified in %s)\n",
		path, time.Since(start).Round(time.Millisecond))
	return nil
}
