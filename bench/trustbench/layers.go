package trustbench

// The traced pass. It reruns the workload over HTTP with per-request
// client spans and trustd's histograms scraped around it, then times the
// layers' public functions in this process, on the workload's own inputs
// where a layer has any. No instrumentation is added inside the program:
// every layer number here is a call made from benchmark code, or a
// counter trustd already exports.

import (
	"bytes"
	"context"
	"crypto/x509"
	"encoding/json"
	"encoding/pem"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/archive"
	"repro/internal/catalog"
	"repro/internal/certutil"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/simulate"
	"repro/internal/store"
	"repro/internal/tracker"
	"repro/internal/useragent"
	"repro/internal/verify"
)

// traced measures the per-layer metrics.
func (r *run) traced(ctx context.Context) error {
	half := r.cfg.Window / 2
	rl := r.startReloads()
	r.logf("untraced reference phase %s", half)
	ref := NewRecorder(false)
	r.drive(ctx, ref, half)
	r.res.count(ref)

	before, err := FetchScrape(ctx, r.srv.Base)
	if err != nil {
		return err
	}
	r.logf("traced phase %s", half)
	tr := NewRecorder(true)
	r.drive(ctx, tr, half)
	r.res.count(tr)
	after, err := FetchScrape(ctx, r.srv.Base)
	if err != nil {
		return err
	}
	changes, err := rl.finish()
	if err != nil {
		return fmt.Errorf("reload schedule: %w", err)
	}
	// The layer timings below run in this process; trustd must not
	// compete for the CPUs.
	r.srv.Stop()
	if err := r.writeSpans(tr.Spans()); err != nil {
		return err
	}

	client := tr.Lat.Snapshot()
	server := RouteDelta(before, after)
	refP50 := ref.Lat.Snapshot().Quantile(0.5)
	r.res.add("load.p50_ms", refP50*1e3, "ms")
	r.res.add("load.lag_p99_ms", tr.Lag.Snapshot().Quantile(0.99)*1e3, "ms")
	r.res.add("load.gap_p50_ms", (client.Quantile(0.5)-server.Quantile(0.5))*1e3, "ms")
	r.res.add("load.samples", float64(client.Count), "count")
	r.res.add("load.p99_ms", client.Quantile(0.99)*1e3, "ms")
	r.res.add("load.ops_per_s", float64(tr.Ops())/tr.Elapsed().Seconds(), "1/s")
	r.res.add("load.p999_ms", client.Quantile(0.999)*1e3, "ms")
	r.res.add("service.server_p50_ms", server.Quantile(0.5)*1e3, "ms")
	r.res.add("service.server_p99_ms", server.Quantile(0.99)*1e3, "ms")
	r.res.add("service.server_us_per_op", server.SumSeconds*1e6/float64(max(tr.Ops(), 1)), "us")
	r.res.add("service.verdict_hit_ratio", VerdictHitRatio(before, after), "ratio")
	r.res.add("service.verifier_builds", Delta(before, after, `trustd_cache_events_total{cache="verifier",result="miss"}`), "count")
	r.res.add("service.heap_inuse_mb", after.Values["go_heap_inuse_bytes"]/(1<<20), "MB")
	r.res.add("obs.trace_overhead_pct", 100*(client.Quantile(0.5)-refP50)/refP50, "%")

	r.res.note("client p50 %.3f ms = gap %.3f ms + server p50 %.3f ms (server requests %d, client samples %d)",
		client.Quantile(0.5)*1e3, (client.Quantile(0.5)-server.Quantile(0.5))*1e3, server.Quantile(0.5)*1e3, server.Count, client.Count)
	if r.cfg.Workload.Reload {
		r.visible = r.visibleAfter(changes)
		if len(r.visible) == 0 {
			return fmt.Errorf("none of %d tree changes reached a client", len(changes))
		}
		r.res.note("reload_s over HTTP: %d of %d changes: %s s", len(r.visible), len(changes), fmtList(r.visible, 3))
	}
	for _, route := range sortedKeys(after.Routes) {
		snap := RouteDelta(before, after, route)
		if snap.Count > 0 {
			r.res.note("server %s: %d requests, p50 %.3f ms, p99 %.3f ms", route, snap.Count, snap.Quantile(0.5)*1e3, snap.Quantile(0.99)*1e3)
		}
	}

	r.logf("in-process layer timings")
	return r.layers()
}

// writeSpans keeps the traced requests beside the build output, one JSON
// object per line.
func (r *run) writeSpans(spans []Span) error {
	path := filepath.Join(r.cfg.Root, BuildDir, "spans-"+r.cfg.Workload.Name+".jsonl")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// perCall times fn over n calls and returns the mean duration of one.
func perCall(n int, fn func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(start) / time.Duration(n)
}

// medianOf times fn k times and returns the median duration.
func medianOf(k int, fn func() error) (time.Duration, error) {
	ds := make([]float64, k)
	for i := range ds {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds)), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// verifySample caps how many of the workload's verifications are timed.
const verifySample = 4000

// layers times each layer's public functions in process.
func (r *run) layers() error {
	f, db, res := r.fix, r.db, r.res

	// useragent: route every UA the workload draws from.
	route := perCall(20*len(f.UAs), func(i int) {
		useragent.MapToProvider(useragent.Parse(f.UAs[i%len(f.UAs)]))
	})
	res.add("useragent.route_us", us(route), "us")

	// verify: parse the chains, build pools for the snapshots the
	// workload verifies against, then time each verification.
	parse := perCall(20*len(f.Chains), func(i int) {
		block, _ := pem.Decode([]byte(f.Chains[i%len(f.Chains)].PEM))
		if _, err := x509.ParseCertificate(block.Bytes); err != nil {
			panic(err) // the fixture minted and parsed these chains
		}
	})
	res.add("verify.parse_us", us(parse), "us")

	items := f.Verifies
	if len(items) > verifySample {
		step := len(items) / verifySample
		sampled := make([]VerifyItem, 0, verifySample)
		for i := 0; i < len(items) && len(sampled) < verifySample; i += step {
			sampled = append(sampled, items[i])
		}
		items = sampled
	}
	var snaps []*store.Snapshot
	verifiers := map[*store.Snapshot]*verify.Verifier{}
	for _, it := range items {
		if verifiers[it.Snap] == nil {
			verifiers[it.Snap] = nil
			snaps = append(snaps, it.Snap)
		}
	}
	pool := perCall(len(snaps), func(i int) {
		v := verify.New(snaps[i])
		v.Pool(store.ServerAuth)
		verifiers[snaps[i]] = v
	})
	res.add("verify.pool_build_ms", ms(pool), "ms")
	for _, s := range snaps {
		// The first Verify builds the verifier's all-roots pool; time
		// steady-state verifications only.
		verifiers[s].Verify(verify.Request{Leaf: f.Chains[0].Leaf, Purpose: store.ServerAuth})
	}
	durs := make([]float64, len(items))
	for i, it := range items {
		start := time.Now()
		verifiers[it.Snap].Verify(verify.Request{Leaf: it.Chain.Leaf, Purpose: store.ServerAuth, At: it.At})
		durs[i] = float64(time.Since(start))
	}
	sort.Float64s(durs)
	res.add("verify.chain_p50_us", durs[len(durs)/2]/1e3, "us")
	res.add("verify.chain_p99_us", durs[len(durs)*99/100]/1e3, "us")

	// store: resolve the snapshots the workload's verifies name, and diff
	// every provider against NSS as the reads do.
	resolve := perCall(len(items), func(i int) {
		h := db.History(items[i].Snap.Provider)
		if items[i].At.IsZero() {
			h.Latest()
		} else {
			h.At(items[i].At)
		}
	})
	res.add("store.resolve_us", us(resolve), "us")
	providers := db.Providers()
	nss := db.History("NSS").Latest()
	diff := perCall(20*len(providers), func(i int) {
		store.DiffSnapshots(db.History(providers[i%len(providers)]).Latest(), nss)
	})
	res.add("store.diff_us", us(diff), "us")

	// simulate: build the engine, then evaluate the workload's what-ifs.
	var eng *simulate.Engine
	build, _ := medianOf(3, func() error { eng = simulate.New(db, simulate.Options{}); return nil })
	res.add("simulate.engine_build_ms", ms(build), "ms")
	events := simulateEvents(db)
	event := perCall(10*len(events), func(i int) {
		if _, err := eng.Simulate(events[i%len(events)]); err != nil {
			panic(err) // the fixture's oracle evaluated these events
		}
	})
	res.add("simulate.event_us", us(event), "us")

	// archive: hash, encode and decode the served database.
	hash, err := medianOf(3, func() error { _, err := archive.HashDatabase(db); return err })
	if err != nil {
		return err
	}
	res.add("archive.hash_db_ms", ms(hash), "ms")
	encode, err := medianOf(3, func() error { _, err := archive.Encode(io.Discard, db, [archive.HashLen]byte{}); return err })
	if err != nil {
		return err
	}
	res.add("archive.encode_ms", ms(encode), "ms")
	packed := filepath.Join(r.dir, "layers.rootpack")
	if _, err := archive.WriteFile(packed, db, [archive.HashLen]byte{}); err != nil {
		return err
	}
	decode, err := medianOf(3, func() error { _, err := archive.ReadFile(packed); return err })
	if err != nil {
		return err
	}
	res.add("archive.decode_ms", ms(decode), "ms")

	// service: build the index, then replay the workload's requests
	// through an in-process handler, warm.
	index, _ := medianOf(3, func() error { service.BuildIndex(db); return nil })
	res.add("service.index_build_ms", ms(index), "ms")
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := service.New(db, service.Config{Logger: quiet, Tracer: obs.NewTracer(obs.Options{Logger: quiet})})
	handler, allocs, err := r.replay(srv)
	if err != nil {
		return err
	}
	res.add("service.handler_us", us(handler), "us")
	self := r.selfTime(route, parse, resolve, diff, event)
	res.add("service.glue_us", us(handler-self), "us")
	res.add("service.allocs_per_op", allocs, "count")
	res.note("in-process handler %.1f us/request = layer self-time %.1f us + glue %.1f us", us(handler), us(self), us(handler-self))

	next, err := WithNSSCopy(db)
	if err != nil {
		return err
	}
	gens := []*store.Database{next, db, next}
	firsts := make([]float64, len(gens))
	for i, g := range gens {
		srv.Swap(g)
		start := time.Now()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/providers", nil))
		firsts[i] = float64(time.Since(start))
		if rec.Code != 200 {
			return fmt.Errorf("in-process /v1/providers after swap: status %d", rec.Code)
		}
	}
	res.add("service.first_after_swap_ms", median(firsts)/1e6, "ms")

	return r.treeLayers(srv, quiet)
}

// simulateEvents are the what-ifs the fixture's simulate traffic asks.
func simulateEvents(db *store.Database) []simulate.Event {
	var out []simulate.Event
	for _, fp := range simulateRoots(db) {
		parsed, err := certutil.ParseFingerprint(fp)
		if err != nil {
			panic(err) // fingerprints come from the database itself
		}
		out = append(out, simulate.Event{Kind: simulate.KindRemoval, Fingerprints: []certutil.Fingerprint{parsed}})
	}
	return out
}

// replaySample caps how many pool requests the in-process replay sends;
// the sample's verdicts fit the server's verdict cache, so the timed pass
// is warm like trustd after warm-up.
const replaySample = 1000

// replay sends a sample of the pool through the in-process handler twice
// and times the second pass: mean time and allocations per request.
func (r *run) replay(srv *service.Server) (time.Duration, float64, error) {
	sample := r.fix.Pool[:min(len(r.fix.Pool), replaySample)]
	passes := max(1, replaySample/len(sample))
	send := func() error {
		for _, req := range sample {
			hr := httptest.NewRequest(req.Method, req.Path, bytes.NewReader(req.Body))
			if req.Ctype != "" {
				hr.Header.Set("Content-Type", req.Ctype)
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, hr)
			if rec.Code != 200 {
				return fmt.Errorf("in-process %s %s: status %d", req.Method, req.Path, rec.Code)
			}
		}
		return nil
	}
	if err := send(); err != nil {
		return 0, 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for p := 0; p < passes; p++ {
		if err := send(); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := len(sample) * passes
	return elapsed / time.Duration(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// selfTime estimates, per replayed request, the time its layers account
// for on a warm server: PEM parsing and UA routing per verify line,
// snapshot resolution per verdict, a what-if per simulate, a diff per diff
// read. The rest of the handler time is glue: HTTP, JSON and caches.
func (r *run) selfTime(route, parse, resolve, diff, event time.Duration) time.Duration {
	sample := r.fix.Pool[:min(len(r.fix.Pool), replaySample)]
	var total time.Duration
	for _, req := range sample {
		switch req.Class {
		case ClassVerify:
			total += parse + route + time.Duration(req.Ops)*resolve
		case ClassBatch:
			total += time.Duration(bytes.Count(req.Body, []byte("\n")))*(parse+route) + time.Duration(req.Ops)*resolve
		case ClassSimulate:
			total += event
		case ClassRead:
			if bytes.HasPrefix([]byte(req.Path), []byte("/v1/diff")) {
				total += diff
			}
		}
	}
	return total / time.Duration(len(sample))
}

// addReloadS reports reload_s, the time from a tree change to the first
// response carrying the new X-Rootpack-Epoch. The reload workload measured
// it over HTTP on its watching trustd, under load, as the median over the
// traced pass's changes. The other workloads' trustd watches no tree, so
// theirs is the in-process tracker's: the change, a Rescan that swaps the
// in-process server, and that server's first response.
func (r *run) addReloadS(inProcess time.Duration) {
	if !r.cfg.Workload.Reload {
		r.res.add("reload_s", inProcess.Seconds(), "s")
		return
	}
	r.res.add("reload_s", median(r.visible), "s")
	r.res.note("reload_s in process %.3f s", inProcess.Seconds())
}

// treeLayers times catalog and tracker work on a copy of the reload tree:
// hashing, loading through the sidecar, parsing single snapshots,
// recompiling the sidecar, and the tracker's initial and incremental
// rescans, split by the spans the tracker records into a tracer this
// benchmark supplies. The in-process server takes the tracker's swaps.
func (r *run) treeLayers(srv *service.Server, quiet *slog.Logger) error {
	res := r.res
	tree := filepath.Join(r.dir, "layer-tree")
	if err := LinkTree(r.tree, tree); err != nil {
		return err
	}
	opts := catalog.Options{}

	th, err := medianOf(1, func() error { _, err := catalog.TreeHash(tree); return err })
	if err != nil {
		return err
	}
	res.add("catalog.tree_hash_ms", ms(th), "ms")
	var loaded *store.Database
	load, err := medianOf(1, func() error { var err error; loaded, err = catalog.LoadTree(tree, opts); return err })
	if err != nil {
		return err
	}
	res.add("catalog.load_tree_ms", ms(load), "ms")
	var dirs [][2]string
	for _, p := range loaded.Providers() {
		dirs = append(dirs, [2]string{p, loaded.History(p).Latest().Version})
	}
	var parseErr error
	parse := perCall(len(dirs), func(i int) {
		if _, _, err := catalog.LoadVersionDir(tree, dirs[i][0], dirs[i][1], opts); err != nil && parseErr == nil {
			parseErr = err
		}
	})
	if parseErr != nil {
		return parseErr
	}
	res.add("catalog.parse_ms", ms(parse), "ms")
	refresh, err := medianOf(1, func() error { return catalog.RefreshArchive(tree, loaded, opts) })
	if err != nil {
		return err
	}
	res.add("catalog.refresh_archive_ms", ms(refresh), "ms")

	tracer := obs.NewTracer(obs.Options{Logger: quiet, SlowThreshold: -1})
	trk, err := tracker.New(tracker.Config{
		Source:   tracker.NewDirSource(tree, 0),
		Catalog:  opts,
		Logger:   quiet,
		Tracer:   tracer,
		OnReload: srv.Swap,
	})
	if err != nil {
		return err
	}
	initial, err := medianOf(1, func() error { _, err := trk.Rescan(); return err })
	if err != nil {
		return err
	}
	res.add("tracker.initial_rescan_ms", ms(initial), "ms")
	cp, err := newNSSCopy(tree, filepath.Join(r.dir, "layer-staging"), loaded)
	if err != nil {
		return err
	}
	_, oldEpoch := srv.Generation()
	changed, err := cp.Toggle()
	if err != nil {
		return err
	}
	seq := trk.LastSeq()
	rescan, err := medianOf(1, func() error {
		n, err := trk.Rescan()
		if err == nil && n != 1 {
			err = fmt.Errorf("tracker rescan ingested %d snapshots, want the one NSS copy", n)
		}
		return err
	})
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/providers", nil))
	visible := time.Since(changed)
	if epoch, _ := strconv.ParseUint(rec.Header().Get("X-Rootpack-Epoch"), 10, 64); rec.Code != 200 || epoch <= oldEpoch {
		return fmt.Errorf("in-process /v1/providers after the rescan: status %d, epoch %d, want a new epoch after %d", rec.Code, epoch, oldEpoch)
	}
	res.add("tracker.rescan_ms", ms(rescan), "ms")
	r.addReloadS(visible)
	recent := tracer.Recent(1)
	if len(recent) == 0 {
		return fmt.Errorf("tracker recorded no rescan trace")
	}
	spans := map[string]float64{}
	for _, s := range recent[0].Spans {
		spans[s.Name] += s.DurationMS
	}
	for _, stage := range []string{"scan", "load", "swap", "classify"} {
		v, ok := spans["tracker."+stage]
		if !ok {
			return fmt.Errorf("tracker rescan trace has no tracker.%s span", stage)
		}
		res.add("tracker."+stage+"_ms", v, "ms")
	}
	res.add("tracker.events", float64(trk.LastSeq()-seq), "count")
	res.note("tracker rescan %.1f ms = scan %.1f + load %.1f + swap %.1f + classify %.1f + residual %.1f; %d events",
		ms(rescan), spans["tracker.scan"], spans["tracker.load"], spans["tracker.swap"], spans["tracker.classify"],
		ms(rescan)-spans["tracker.scan"]-spans["tracker.load"]-spans["tracker.swap"]-spans["tracker.classify"], trk.LastSeq()-seq)
	return nil
}
