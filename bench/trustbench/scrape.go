package trustbench

// Server-side numbers come from trustd's own exposition, scraped before
// and after a phase and diffed: the per-route latency histograms (the
// shared obs HDR layout, so client and server quantiles line up bucket for
// bucket) and the cache and verdict counters.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Scrape is one parsed /metrics/prometheus exposition.
type Scrape struct {
	// Values maps a series ("name" or `name{labels}`) to its value.
	Values map[string]float64
	// Routes maps a route to its latency histogram's per-bucket counts in
	// the obs HDR layout.
	Routes map[string][]uint64
	// RouteSeconds is each route's _sum.
	RouteSeconds map[string]float64
}

const latencyFamily = "trustd_request_duration_seconds"

// FetchScrape reads trustd's Prometheus exposition.
func FetchScrape(ctx context.Context, base string) (*Scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics/prometheus", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	return ParseScrape(resp.Body)
}

// ParseScrape parses the text exposition format, dropping exemplars.
func ParseScrape(r io.Reader) (*Scrape, error) {
	s := &Scrape{Values: map[string]float64{}, Routes: map[string][]uint64{}, RouteSeconds: map[string]float64{}}
	leIndex := map[string]int{}
	for i := 0; i < obs.HDRNumBuckets(); i++ {
		leIndex[obs.HDRBucketLabel(i)] = i
	}
	cumulative := map[string][]uint64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if i := bytes.Index(line, []byte(" # ")); i >= 0 {
			line = line[:i] // exemplar
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("scrape: malformed line %q", line)
		}
		series := string(line[:sp])
		v, err := strconv.ParseFloat(string(line[sp+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: value in %q: %w", line, err)
		}
		s.Values[series] = v
		name, labels := splitSeries(series)
		switch name {
		case latencyFamily + "_bucket":
			i, ok := leIndex[labels["le"]]
			if !ok {
				return nil, fmt.Errorf("scrape: bucket le=%q is not in the shared HDR layout", labels["le"])
			}
			c := cumulative[labels["route"]]
			if c == nil {
				c = make([]uint64, obs.HDRNumBuckets())
				cumulative[labels["route"]] = c
			}
			c[i] = uint64(v)
		case latencyFamily + "_sum":
			s.RouteSeconds[labels["route"]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	for route, c := range cumulative {
		per := make([]uint64, len(c))
		var prev uint64
		for i, v := range c {
			per[i] = v - prev
			prev = v
		}
		s.Routes[route] = per
	}
	return s, nil
}

// splitSeries splits `name{a="x",b="y"}` into its name and labels. Label
// values in trustd's exposition hold no escaped quotes.
func splitSeries(series string) (string, map[string]string) {
	name, rest, ok := strings.Cut(series, "{")
	if !ok {
		return series, nil
	}
	labels := map[string]string{}
	for _, kv := range strings.Split(strings.TrimSuffix(rest, "}"), ",") {
		if k, v, ok := strings.Cut(kv, "="); ok {
			labels[k] = strings.Trim(v, `"`)
		}
	}
	return name, labels
}

// Delta returns after minus before for one series (0 when absent).
func Delta(before, after *Scrape, series string) float64 {
	return after.Values[series] - before.Values[series]
}

// VerdictHitRatio is the share of verdict-cache lookups between two
// scrapes that hit.
func VerdictHitRatio(before, after *Scrape) float64 {
	hits := Delta(before, after, `trustd_cache_events_total{cache="verdict",result="hit"}`)
	misses := Delta(before, after, `trustd_cache_events_total{cache="verdict",result="miss"}`)
	return hits / max(hits+misses, 1)
}

// RouteDelta merges the latency buckets that moved between two scrapes
// across the given routes, or every route when none is given; SumSeconds
// is their summed serving time.
func RouteDelta(before, after *Scrape, routes ...string) obs.HDRSnapshot {
	if len(routes) == 0 {
		routes = sortedKeys(after.Routes)
	}
	snap := obs.HDRSnapshot{Counts: make([]uint64, obs.HDRNumBuckets())}
	for _, route := range routes {
		b := before.Routes[route]
		for i, v := range after.Routes[route] {
			if b != nil {
				v -= b[i]
			}
			snap.Counts[i] += v
			snap.Count += v
		}
		snap.SumSeconds += after.RouteSeconds[route] - before.RouteSeconds[route]
	}
	return snap
}
