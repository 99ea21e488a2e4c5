package main

// The `ecosystem ct` subcommand: the non-TLS ecosystem report. It compares
// the CT-log and TPM-manifest providers against every browser store — the
// divergence table reproducing the CT root-landscape finding (logs
// accumulate, so they sit far from every browser store, while same-operator
// logs are near-identical) — and summarizes the MDS embedding with the
// ecosystem families layered in.
//
// Usage:
//
//	ecosystem ct [-seed s | -tree dir]
//
// With -tree, the stores come from a snapshot tree (cmd/synthgen
// -ecosystems writes one) and operators from its ct-log-list.json manifest.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/ctlog"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/synth"
)

func runCT(args []string) int {
	fs := flag.NewFlagSet("ecosystem ct", flag.ExitOnError)
	seed := fs.String("seed", "tracing-your-roots", "synthetic corpus seed (ignored with -tree)")
	tree := fs.String("tree", "", "load stores from a snapshot tree instead of generating")
	fs.Parse(args)

	var db *store.Database
	operators := make(map[string]string)
	if *tree != "" {
		var err error
		db, err = catalog.LoadTree(*tree, catalog.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ecosystem ct: %v\n", err)
			return 1
		}
		if ll, err := ctlog.LoadLogList(filepath.Join(*tree, ctlog.LogListName)); err == nil {
			for _, op := range ll.Operators {
				for _, lg := range op.Logs {
					operators[lg.Dir] = op.Name
				}
			}
		}
	} else {
		eco, err := synth.CachedWithEcosystems(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ecosystem ct: %v\n", err)
			return 1
		}
		db = eco.DB
		for _, lg := range synth.CTLogs() {
			operators[lg.Name] = lg.Operator
		}
	}

	if err := renderCT(os.Stdout, db, operators); err != nil {
		fmt.Fprintf(os.Stderr, "ecosystem ct: %v\n", err)
		return 1
	}
	return 0
}

// renderCT prints the divergence matrix, the operator-correlation pairs and
// the ordination summary for the database's non-TLS providers.
func renderCT(w io.Writer, db *store.Database, operators map[string]string) error {
	p := core.New(db)
	rep := p.EcosystemDivergence()
	if len(rep.Rows) == 0 {
		fmt.Fprintln(w, "ecosystem ct: no CT-log or manifest providers in the database")
		return nil
	}

	headers := append([]string{"provider", "kind", "operator"}, rep.TLSStores...)
	headers = append(headers, "min")
	matrix := report.NewTable("Ecosystem divergence (Jaccard distance to browser stores, 1 = disjoint)", headers...)
	byProvider := make(map[string]map[string]core.DivergenceRow)
	kinds := make(map[string]store.Kind)
	for _, row := range rep.Rows {
		if byProvider[row.Provider] == nil {
			byProvider[row.Provider] = make(map[string]core.DivergenceRow)
		}
		byProvider[row.Provider][row.Store] = row
		kinds[row.Provider] = row.Kind
	}
	minDist := rep.MinDistanceToTLS()
	for _, kind := range []store.Kind{store.KindCT, store.KindManifest} {
		for _, prov := range rep.Providers[kind] {
			cells := []any{prov, string(kind), operators[prov]}
			for _, tls := range rep.TLSStores {
				cells = append(cells, fmt.Sprintf("%.3f", byProvider[prov][tls].Distance))
			}
			cells = append(cells, fmt.Sprintf("%.3f", minDist[prov]))
			matrix.AddRow(cells...)
		}
	}
	if err := matrix.Render(w); err != nil {
		return err
	}

	if pairs := rep.Pairs[store.KindCT]; len(pairs) > 0 {
		fmt.Fprintln(w)
		pt := report.NewTable("CT operator correlation (pairwise log distance)", "log A", "log B", "operators", "distance")
		for _, pair := range pairs {
			rel := "cross-operator"
			if operators[pair.A] != "" && operators[pair.A] == operators[pair.B] {
				rel = "same-operator"
			}
			pt.AddRow(pair.A, pair.B, rel, fmt.Sprintf("%.3f", pair.Distance))
		}
		if err := pt.Render(w); err != nil {
			return err
		}
	}

	for prov, op := range operators {
		p.Families[prov] = "CT:" + op
	}
	for _, prov := range rep.Providers[store.KindManifest] {
		p.Families[prov] = "TPM"
	}
	// The report embeds whatever the database holds: unlike Figure 1 there
	// is no paper window to clip to, and tree-loaded snapshots may carry
	// file-derived dates far from the publication years.
	cfg := core.DefaultOrdinationConfig()
	cfg.From = time.Time{}
	cfg.To = time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)
	cfg.K = 8
	ord, err := p.Ordinate(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	ot := report.NewTable("Ordination with ecosystem families (MDS centroids)", "family", "x", "y")
	for _, fam := range sortedKeys(ord.FamilyCentroids) {
		c := ord.FamilyCentroids[fam]
		ot.AddRow(fam, fmt.Sprintf("%+.3f", c[0]), fmt.Sprintf("%+.3f", c[1]))
	}
	if err := ot.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nstress-1 %.3f, purity %.3f, %d families own clusters\n",
		ord.Stress1, ord.Purity, ord.DistinctFamilies)
	return nil
}

func sortedKeys(m map[string][2]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
