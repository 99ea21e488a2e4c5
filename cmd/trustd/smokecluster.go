package main

// The -smoke-cluster self-test: a hermetic origin + two-replica fleet on
// loopback listeners, exercising the exact wiring a real deployment uses —
// origin publish, replica bootstrap over HTTP, a rolled generation
// converging through long-polls, generation headers, and the convergence
// gauges — while a query loop asserts that no request ever fails.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/testcerts"
)

func runSmokeCluster(logger *slog.Logger) int {
	if err := smokeClusterScenario(logger); err != nil {
		logger.Error("trustd smoke-cluster: FAIL", "err", err)
		return 1
	}
	fmt.Println("trustd smoke-cluster: OK")
	return 0
}

// smokeNode is one loopback trustd: a service on a real listener.
type smokeNode struct {
	srv  *service.Server
	base string
	hs   *http.Server
}

func serveNode(srv *service.Server) (*smokeNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go hs.Serve(ln)
	return &smokeNode{srv: srv, base: "http://" + ln.Addr().String(), hs: hs}, nil
}

func smokeClusterScenario(logger *slog.Logger) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	db1, err := smokeClusterDB("2020-06-01", 0, 1)
	if err != nil {
		return err
	}

	// Origin node: service + mounted distribution endpoints.
	org := cluster.NewOrigin(cluster.OriginOptions{Logger: logger})
	m1, err := org.Publish(ctx, db1, [archive.HashLen]byte{})
	if err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	originSrv := service.New(db1, service.Config{Logger: logger})
	if hb, err := m1.HashBytes(); err == nil {
		originSrv.SwapArchive(db1, hb, m1.Epoch)
	}
	originSrv.Mount("/cluster/", org.Handler())
	originSrv.Metrics().Include(org.Metrics())
	originNode, err := serveNode(originSrv)
	if err != nil {
		return err
	}
	defer originNode.hs.Close()

	// Two replica nodes bootstrapping over the wire.
	replicas := make([]*smokeNode, 2)
	for i := range replicas {
		node, stop, err := smokeReplicaNode(ctx, originNode.base, logger)
		if err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		defer stop()
		replicas[i] = node
	}
	for i, n := range replicas {
		if hash, epoch := n.srv.Generation(); hash != m1.Hash || epoch != m1.Epoch {
			return fmt.Errorf("replica %d bootstrapped on %s/%d, want %s/%d", i, hash, epoch, m1.Hash, m1.Epoch)
		}
	}

	// Continuous query load across the whole fleet while the snapshot
	// change rolls through. Every response must be a clean 2xx.
	var failures, queries atomic.Uint64
	loadCtx, stopLoad := context.WithCancel(ctx)
	defer stopLoad()
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		client := &http.Client{Timeout: 5 * time.Second}
		targets := []string{originNode.base, replicas[0].base, replicas[1].base}
		for i := 0; loadCtx.Err() == nil; i++ {
			res, err := client.Get(targets[i%len(targets)] + "/v1/providers")
			queries.Add(1)
			if err != nil {
				failures.Add(1)
				continue
			}
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
			if res.StatusCode != http.StatusOK {
				failures.Add(1)
			}
		}
	}()

	// Roll one snapshot change through the fleet: origin publishes, the
	// long-polls wake, both replicas converge.
	db2, err := smokeClusterDB("2020-07-01", 1, 2)
	if err != nil {
		return err
	}
	m2, err := org.Publish(ctx, db2, [archive.HashLen]byte{})
	if err != nil {
		return fmt.Errorf("publish v2: %w", err)
	}
	if m2.Epoch != m1.Epoch+1 {
		return fmt.Errorf("second publish epoch %d, want %d", m2.Epoch, m1.Epoch+1)
	}
	if hb, err := m2.HashBytes(); err == nil {
		originSrv.SwapArchive(db2, hb, m2.Epoch)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		converged := 0
		for _, n := range replicas {
			if hash, _ := n.srv.Generation(); hash == m2.Hash {
				converged++
			}
		}
		if converged == len(replicas) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not converge on %s within 15s", m2.Hash[:12])
		}
		time.Sleep(25 * time.Millisecond)
	}
	stopLoad()
	<-loadDone
	if q, f := queries.Load(), failures.Load(); f != 0 || q == 0 {
		return fmt.Errorf("%d of %d fleet queries failed during the roll", f, q)
	}

	// The generation surface agrees across the fleet: headers, healthz,
	// and the convergence gauges.
	client := &http.Client{Timeout: 5 * time.Second}
	for i, n := range append([]*smokeNode{originNode}, replicas...) {
		res, err := client.Get(n.base + "/healthz")
		if err != nil {
			return err
		}
		var h struct {
			Generation struct {
				Hash  string `json:"hash"`
				Epoch uint64 `json:"epoch"`
			} `json:"generation"`
		}
		err = json.NewDecoder(res.Body).Decode(&h)
		res.Body.Close()
		if err != nil {
			return err
		}
		if res.Header.Get("X-Rootpack-Hash") != m2.Hash || h.Generation.Hash != m2.Hash || h.Generation.Epoch != m2.Epoch {
			return fmt.Errorf("node %d serves generation %s/%d (header %s), fleet is on %s/%d",
				i, h.Generation.Hash, h.Generation.Epoch, res.Header.Get("X-Rootpack-Hash"), m2.Hash, m2.Epoch)
		}
	}
	res, err := client.Get(replicas[0].base + "/metrics/prometheus")
	if err != nil {
		return err
	}
	ptext, _ := io.ReadAll(res.Body)
	res.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("trustd_cluster_replica_epoch %d", m2.Epoch),
		fmt.Sprintf("trustd_cluster_origin_epoch %d", m2.Epoch),
		"trustd_cluster_replica_lag_seconds",
	} {
		if !strings.Contains(string(ptext), want) {
			return fmt.Errorf("replica exposition missing %q", want)
		}
	}
	return nil
}

// smokeReplicaNode builds one replica-backed service the same way main()
// does: bootstrap first, then route later swaps through an atomic server
// pointer.
func smokeReplicaNode(ctx context.Context, originURL string, logger *slog.Logger) (*smokeNode, func(), error) {
	var srvPtr atomic.Pointer[service.Server]
	rep, err := cluster.NewReplica(cluster.ReplicaConfig{
		OriginURL:  originURL,
		Interval:   50 * time.Millisecond,
		WaitFor:    500 * time.Millisecond,
		MaxBackoff: time.Second,
		Logger:     logger,
		OnSwap: func(db *store.Database, m cluster.Manifest) {
			s := srvPtr.Load()
			if s == nil {
				return
			}
			if hb, err := m.HashBytes(); err == nil {
				s.SwapArchive(db, hb, m.Epoch)
			}
		},
	})
	if err != nil {
		return nil, nil, err
	}
	db, m, err := rep.Bootstrap(ctx)
	if err != nil {
		return nil, nil, err
	}
	srv := service.New(db, service.Config{Logger: logger})
	if hb, err := m.HashBytes(); err == nil {
		srv.SwapArchive(db, hb, m.Epoch)
	}
	srv.Metrics().Include(rep.Metrics())
	srvPtr.Store(srv)
	runCtx, stopRun := context.WithCancel(ctx)
	go rep.Run(runCtx)
	node, err := serveNode(srv)
	if err != nil {
		stopRun()
		return nil, nil, err
	}
	return node, func() { stopRun(); node.hs.Close() }, nil
}

// smokeClusterDB builds the same two-provider disagreement shape as the
// plain smoke fixture, parameterised so successive generations hash
// differently.
func smokeClusterDB(version string, idx ...int) (*store.Database, error) {
	roots := testcerts.Roots(3)
	date, err := time.Parse("2006-01-02", version)
	if err != nil {
		return nil, err
	}
	db := store.NewDatabase()
	for _, provider := range []string{"NSS", "Debian"} {
		snap := store.NewSnapshot(provider, version, date)
		for _, i := range idx {
			e, err := store.NewTrustedEntry(roots[i].DER, store.ServerAuth)
			if err != nil {
				return nil, err
			}
			snap.Add(e)
		}
		if err := db.AddSnapshot(snap); err != nil {
			return nil, err
		}
	}
	return db, nil
}
