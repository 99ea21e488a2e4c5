package cluster_test

// Multi-node end-to-end: one origin node (service + mounted cluster
// endpoints) feeding three replicas, each fronting its own service.Server,
// under continuous query load. The fleet must converge on every publish
// within a bounded window, survive an origin outage without failing a
// single query (last-known-good), re-converge after recovery, and expose
// the replica-lag/epoch gauges on /metrics/prometheus.

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/store"
)

type replicaNode struct {
	rep *cluster.Replica
	svc *service.Server
	web *httptest.Server
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func startReplicaNode(t *testing.T, originURL string) *replicaNode {
	t.Helper()
	ctx := t.Context()
	var svcPtr atomic.Pointer[service.Server]
	rep, err := cluster.NewReplica(cluster.ReplicaConfig{
		OriginURL:  originURL,
		CacheDir:   t.TempDir(),
		Interval:   25 * time.Millisecond,
		WaitFor:    250 * time.Millisecond,
		MaxBackoff: 100 * time.Millisecond,
		Logger:     quietLogger(),
		OnSwap: func(db *store.Database, m cluster.Manifest) {
			if s := svcPtr.Load(); s != nil {
				hb, err := m.HashBytes()
				if err != nil {
					return
				}
				s.SwapArchive(db, hb, m.Epoch)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	db, m, err := rep.Bootstrap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(db, service.Config{Logger: quietLogger()})
	hb, err := m.HashBytes()
	if err != nil {
		t.Fatal(err)
	}
	svc.SwapArchive(db, hb, m.Epoch)
	svc.Metrics().Include(rep.Metrics())
	svcPtr.Store(svc)
	go rep.Run(ctx)
	web := httptest.NewServer(svc.Handler())
	t.Cleanup(web.Close)
	return &replicaNode{rep: rep, svc: svc, web: web}
}

// waitConverged polls until every node serves wantHash or the deadline
// passes.
func waitConverged(t *testing.T, nodes []*replicaNode, wantHash string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		lagging := 0
		for _, n := range nodes {
			if hash, _ := n.svc.Generation(); hash != wantHash {
				lagging++
			}
		}
		if lagging == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d replicas still not on %s after %v", lagging, len(nodes), wantHash[:12], within)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node e2e skipped in -short mode")
	}
	ctx := t.Context()

	// Origin node: a full service with the cluster endpoints mounted on the
	// same listener, exactly as cmd/trustd -origin wires it.
	db1 := testDB(t, "v1", 0, 1)
	org := cluster.NewOrigin(cluster.OriginOptions{Logger: quietLogger()})
	m1, err := org.Publish(ctx, db1, [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	originSvc := service.New(db1, service.Config{Logger: quietLogger()})
	hb1, _ := m1.HashBytes()
	originSvc.SwapArchive(db1, hb1, m1.Epoch)
	originSvc.Mount("/cluster/", org.Handler())
	originSvc.Metrics().Include(org.Metrics())
	gate := &faultGate{inner: originSvc.Handler()}
	originWeb := httptest.NewServer(gate)
	defer originWeb.Close()

	// The cluster endpoints are reachable through the service mux.
	res, err := http.Get(originWeb.URL + "/cluster/v1/manifest")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("mounted manifest endpoint status %d, want 200", res.StatusCode)
	}

	nodes := make([]*replicaNode, 3)
	for i := range nodes {
		nodes[i] = startReplicaNode(t, originWeb.URL)
	}
	waitConverged(t, nodes, m1.Hash, 5*time.Second)

	// Continuous query load against every replica for the whole scenario.
	// Any response that is not a clean 200 is a failed query.
	var failed atomic.Uint64
	var queries atomic.Uint64
	stop := make(chan struct{})
	loadDone := make(chan struct{})
	for _, n := range nodes {
		go func(base string) {
			defer func() { loadDone <- struct{}{} }()
			client := &http.Client{Timeout: 5 * time.Second}
			paths := []string{"/v1/providers", "/healthz", "/v1/diff?a=NSS&b=Debian"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := client.Get(base + paths[i%len(paths)])
				queries.Add(1)
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
				if res.StatusCode != http.StatusOK {
					failed.Add(1)
				}
			}
		}(n.web.URL)
	}

	// Roll a new generation through the fleet under load.
	db2 := testDB(t, "v2", 1, 2)
	m2, err := org.Publish(ctx, db2, [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	originSvc.SwapArchive(db2, mustHashBytes(t, m2), m2.Epoch)
	waitConverged(t, nodes, m2.Hash, 10*time.Second)

	// Kill the origin. Replicas keep serving m2 (last-known-good) and the
	// query load must not notice.
	gate.down.Store(true)
	time.Sleep(400 * time.Millisecond) // several failed sync rounds
	for i, n := range nodes {
		if hash, epoch := n.svc.Generation(); hash != m2.Hash || epoch != m2.Epoch {
			t.Fatalf("replica %d dropped its generation during origin outage: %s/%d", i, hash[:12], epoch)
		}
	}

	// Recovery: origin returns with a third generation; the fleet
	// re-converges from backoff.
	db3 := testDB(t, "v3", 0, 2)
	m3, err := org.Publish(ctx, db3, [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	originSvc.SwapArchive(db3, mustHashBytes(t, m3), m3.Epoch)
	gate.down.Store(false)
	waitConverged(t, nodes, m3.Hash, 10*time.Second)

	close(stop)
	for range nodes {
		<-loadDone
	}
	if q, f := queries.Load(), failed.Load(); f != 0 || q == 0 {
		t.Fatalf("%d of %d queries failed during rolls and origin outage", f, q)
	}

	// Every replica now advertises the final generation on the wire.
	for i, n := range nodes {
		res, err := http.Get(n.web.URL + "/v1/providers")
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if h := res.Header.Get("X-Rootpack-Hash"); h != m3.Hash {
			t.Errorf("replica %d X-Rootpack-Hash %q, want %q", i, h, m3.Hash)
		}
		if e := res.Header.Get("X-Rootpack-Epoch"); e != fmt.Sprint(m3.Epoch) {
			t.Errorf("replica %d X-Rootpack-Epoch %s, want %d", i, e, m3.Epoch)
		}
	}

	// The convergence gauges are on the Prometheus endpoint of both roles.
	repText := promText(t, nodes[0].web.URL)
	for _, want := range []string{
		"trustd_cluster_replica_epoch " + fmt.Sprint(m3.Epoch),
		"trustd_cluster_origin_epoch " + fmt.Sprint(m3.Epoch),
		"trustd_cluster_replica_lag_seconds",
		"trustd_cluster_swaps_total",
	} {
		if !strings.Contains(repText, want) {
			t.Errorf("replica exposition missing %q", want)
		}
	}
	// The replica's /metrics JSON carries the same cluster series; the lag
	// moves between the two reads, so only its presence is compared.
	res, err = http.Get(nodes[0].web.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var view map[string]any
	err = json.NewDecoder(res.Body).Decode(&view)
	res.Body.Close()
	if err != nil {
		t.Fatalf("replica /metrics: %v", err)
	}
	for _, line := range strings.Split(repText, "\n") {
		name, value, _ := strings.Cut(line, " ")
		if !strings.HasPrefix(name, "trustd_cluster_") {
			continue
		}
		got, ok := view[name].(float64)
		if v, err := strconv.ParseFloat(value, 64); !ok || err != nil || (got != v && name != "trustd_cluster_replica_lag_seconds") {
			t.Errorf("replica %s: exposition %s, /metrics JSON %v", name, value, view[name])
		}
	}
	orgText := promText(t, originWeb.URL)
	for _, want := range []string{
		"trustd_cluster_origin_epoch " + fmt.Sprint(m3.Epoch),
		"trustd_cluster_publishes_total 3",
		"trustd_cluster_archive_bytes_total",
	} {
		if !strings.Contains(orgText, want) {
			t.Errorf("origin exposition missing %q", want)
		}
	}
}

func mustHashBytes(t *testing.T, m cluster.Manifest) [32]byte {
	t.Helper()
	hb, err := m.HashBytes()
	if err != nil {
		t.Fatal(err)
	}
	return hb
}

func promText(t *testing.T, base string) string {
	t.Helper()
	res, err := http.Get(base + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
