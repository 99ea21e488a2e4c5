package service_test

// Tests for the /v1/verify/batch NDJSON pipeline: ordering, parity with
// the single-verify endpoint, per-line error isolation, oversized-line
// handling, client-disconnect drain, and generation pinning across a
// mid-batch hot swap.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"encoding/pem"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/certgen"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/testcerts"
)

// batchLineOut is one decoded NDJSON response line.
type batchLineOut struct {
	Seq         int    `json:"seq"`
	ChainSHA256 string `json:"chain_sha256"`
	Purpose     string `json:"purpose"`
	At          string `json:"at"`
	UserAgent   *struct {
		Browser   string `json:"browser"`
		Provider  string `json:"provider"`
		Traceable bool   `json:"traceable"`
	} `json:"user_agent"`
	Verdicts []struct {
		Store             string    `json:"store"`
		Provider          string    `json:"provider"`
		Date              time.Time `json:"date"`
		Outcome           string    `json:"outcome"`
		AnchorFingerprint string    `json:"anchor"`
		AnchorLabel       string    `json:"anchor_label"`
		Error             string    `json:"error"`
		Cached            bool      `json:"cached"`
	} `json:"verdicts"`
	Error string `json:"error"`
}

// postBatch drives the handler with an NDJSON body and decodes every
// response line, failing the test on any line that is not valid JSON.
func postBatch(t *testing.T, srv *service.Server, body string) []batchLineOut {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/verify/batch", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	res := rec.Result()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", res.StatusCode, rec.Body.String())
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var out []batchLineOut
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line batchLineOut
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("response line %d is not valid JSON: %v\n%s", len(out), err, sc.Text())
		}
		out = append(out, line)
	}
	return out
}

// derChain converts a PEM chain into the chain_der base64 form.
func derChain(t testing.TB, chainPEM string) []string {
	t.Helper()
	var ders []string
	rest := []byte(chainPEM)
	for {
		var block *pem.Block
		block, rest = pem.Decode(rest)
		if block == nil {
			break
		}
		ders = append(ders, base64.StdEncoding.EncodeToString(block.Bytes))
	}
	if len(ders) == 0 {
		t.Fatal("no PEM blocks in fixture chain")
	}
	return ders
}

func ndline(t *testing.T, v map[string]any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw) + "\n"
}

// postRaw posts body to path and returns the status and the raw response.
func postRaw(t *testing.T, srv *service.Server, path string, body []byte) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestBatchMatchesSingleVerify is the parity property of the one verify
// core: for every input, the /v1/verify body is byte-identical to the
// batch line with its "seq":N, removed — verdict rows, cached flags,
// routing explanation and error envelopes alike — and /v1/verify answers
// an error input with the status the table names.
func TestBatchMatchesSingleVerify(t *testing.T) {
	eco, _ := fixture(t)
	symantec, _ := symantecChain(t, eco)
	plain := benchChains(t, eco, 1)[0]
	chains := []string{symantec, plain, symantec + plain} // the last has an intermediate

	type input struct {
		name   string
		body   []byte
		status int
		hash   string // want chain_sha256: over the raw DER, whatever the form
	}
	var inputs []input
	add := func(name string, status int, v map[string]any) {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name: name, body: raw, status: status})
	}
	routes := []struct {
		name string
		v    map[string]any
	}{
		{"stores", map[string]any{"stores": []string{"NSS", "Microsoft"}}},
		{"traceable-ua", map[string]any{"user_agent": uaFirefox}},
		{"untraceable-ua+stores", map[string]any{"user_agent": "okhttp/4.9.0", "stores": []string{"Debian"}}},
	}
	ats := []string{"", "2020-11-15", "2020-11-15T12:00:00+02:00"}
	extras := []map[string]any{{}, {"purpose": "email-protection", "dns_name": "shop.example.test"}}
	for ci, chain := range chains {
		h := sha256.New()
		for _, b64 := range derChain(t, chain) {
			der, _ := base64.StdEncoding.DecodeString(b64)
			h.Write(der)
		}
		hash := hex.EncodeToString(h.Sum(nil))
		for _, form := range []string{"chain_pem", "chain_der"} {
			for _, rt := range routes {
				for _, at := range ats {
					for ei, extra := range extras {
						v := map[string]any{}
						if form == "chain_pem" {
							v[form] = chain
						} else {
							v[form] = derChain(t, chain)
						}
						for k, x := range rt.v {
							v[k] = x
						}
						for k, x := range extra {
							v[k] = x
						}
						if at != "" {
							v["at"] = at
						}
						add(fmt.Sprintf("chain%d/%s/%s/at=%q/extra%d", ci, form, rt.name, at, ei), http.StatusOK, v)
						inputs[len(inputs)-1].hash = hash
					}
				}
			}
		}
	}
	add("untraceable-ua", http.StatusUnprocessableEntity, map[string]any{"chain_pem": symantec, "user_agent": "okhttp/4.9.0"})
	add("unknown-store", http.StatusNotFound, map[string]any{"chain_pem": symantec, "user_agent": uaFirefox, "stores": []string{"NetBSD"}})
	add("unknown-version", http.StatusNotFound, map[string]any{"chain_pem": symantec, "stores": []string{"NSS@nope"}})
	add("bad-at", http.StatusBadRequest, map[string]any{"chain_pem": symantec, "at": "yesterday"})
	add("bad-purpose", http.StatusBadRequest, map[string]any{"chain_pem": symantec, "purpose": "world-domination"})
	add("empty-chain", http.StatusBadRequest, map[string]any{"chain_pem": "", "stores": []string{"NSS"}})
	add("garbage-pem", http.StatusBadRequest, map[string]any{"chain_pem": "-----BEGIN CERTIFICATE-----\nAAAA\n-----END CERTIFICATE-----\n", "stores": []string{"NSS"}})
	add("bad-base64", http.StatusBadRequest, map[string]any{"chain_der": []string{"!!"}, "stores": []string{"NSS"}})
	for name, raw := range map[string]string{
		"broken-json":   "{not json",
		"trailing-data": `{"chain_pem":"x"} garbage`,
		"wrong-type":    `{"stores":"NSS"}`,
	} {
		inputs = append(inputs, input{name: name, body: []byte(raw), status: http.StatusBadRequest})
	}

	// Two fresh servers so both routes see the same cache history; one
	// batch worker so the batch resolves lines in input order, exactly as
	// the sequential singles do. The second round runs warm.
	single := service.New(eco.DB, service.Config{})
	batched := service.New(eco.DB, service.Config{BatchWorkers: 1})
	var batch bytes.Buffer
	for _, in := range inputs {
		batch.Write(in.body)
		batch.WriteByte('\n')
	}
	for round := 0; round < 2; round++ {
		status, out := postRaw(t, batched, "/v1/verify/batch", batch.Bytes())
		if status != http.StatusOK {
			t.Fatalf("round %d: batch status %d", round, status)
		}
		lines := bytes.SplitAfter(out, []byte("\n"))
		if len(lines) != len(inputs)+1 || len(lines[len(inputs)]) != 0 {
			t.Fatalf("round %d: %d batch lines for %d inputs", round, len(lines)-1, len(inputs))
		}
		for i, in := range inputs {
			status, got := postRaw(t, single, "/v1/verify", in.body)
			if status != in.status {
				t.Errorf("round %d %s: /v1/verify status %d, want %d: %s", round, in.name, status, in.status, got)
			}
			seq := fmt.Sprintf(`{"seq":%d,`, i)
			want, ok := bytes.CutPrefix(lines[i], []byte(seq))
			if !ok {
				t.Fatalf("round %d %s: batch line lacks %s: %s", round, in.name, seq, lines[i])
			}
			if want = append([]byte("{"), want...); !bytes.Equal(got, want) {
				t.Errorf("round %d %s: routes differ\n single: %s batch: %s", round, in.name, got, want)
			}
			var line batchLineOut
			if err := json.Unmarshal(got, &line); err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			if (line.Error == "") != (in.status == http.StatusOK) {
				t.Errorf("round %d %s: status %d with error %q", round, in.name, status, line.Error)
			}
			if line.ChainSHA256 != in.hash {
				t.Errorf("%s: chain_sha256 %q, want %q", in.name, line.ChainSHA256, in.hash)
			}
			if in.status == http.StatusUnprocessableEntity && (line.UserAgent == nil || line.UserAgent.Traceable) {
				t.Errorf("%s: 422 envelope lacks the untraceable user_agent: %s", in.name, got)
			}
			if round == 1 && line.Error == "" {
				for _, v := range line.Verdicts {
					if !v.Cached {
						t.Errorf("%s: warm verdict for %s not cached", in.name, v.Store)
					}
				}
			}
			// The at echo is UTC on both routes.
			if strings.Contains(in.name, "+02:00") && line.At != "2020-11-15T10:00:00Z" {
				t.Errorf("%s: at echo %q, want 2020-11-15T10:00:00Z", in.name, line.At)
			}
		}
	}
}

func TestBatchUserAgentRouting(t *testing.T) {
	eco, srv := fixture(t)
	chain, _ := symantecChain(t, eco)

	body := ndline(t, map[string]any{
		"chain_pem": chain, "user_agent": uaFirefox, "at": "2020-11-15",
	}) + ndline(t, map[string]any{
		// Untraceable with no fallback stores: a per-line error, with the
		// routing explanation attached.
		"chain_pem": chain, "user_agent": "okhttp/4.9.0",
	})
	lines := postBatch(t, srv, body)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	ff := lines[0]
	if ff.UserAgent == nil || ff.UserAgent.Provider != "NSS" || !ff.UserAgent.Traceable {
		t.Fatalf("firefox line user_agent = %+v, want NSS/traceable", ff.UserAgent)
	}
	if len(ff.Verdicts) != 1 || ff.Verdicts[0].Provider != "NSS" {
		t.Fatalf("firefox line verdicts = %+v, want one NSS verdict", ff.Verdicts)
	}
	bad := lines[1]
	if bad.Error == "" || bad.UserAgent == nil || bad.UserAgent.Traceable {
		t.Fatalf("okhttp line = %+v, want error with untraceable user_agent info", bad)
	}
}

func TestBatchMalformedLineMidStream(t *testing.T) {
	eco, srv := fixture(t)
	chain, _ := symantecChain(t, eco)
	good := ndline(t, map[string]any{"chain_pem": chain, "stores": []string{"NSS"}, "at": "2020-11-15"})

	before := metric(srv, "trustd_batch_rejected_lines_total")
	body := good + "{this is not json\n" + `{"chain_pem":""}` + "\n" + good
	lines := postBatch(t, srv, body)
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4 (stream must continue past bad lines)", len(lines))
	}
	if lines[0].Error != "" || len(lines[0].Verdicts) == 0 {
		t.Fatalf("line 0 = %+v, want verdicts", lines[0])
	}
	if !strings.Contains(lines[1].Error, "invalid JSON") {
		t.Fatalf("line 1 error = %q, want invalid JSON", lines[1].Error)
	}
	if !strings.Contains(lines[2].Error, "no certificates") {
		t.Fatalf("line 2 error = %q, want empty-chain error", lines[2].Error)
	}
	if lines[3].Error != "" || len(lines[3].Verdicts) == 0 {
		t.Fatalf("line 3 = %+v, want verdicts", lines[3])
	}
	if got := metric(srv, "trustd_batch_rejected_lines_total") - before; got != 2 {
		t.Errorf("batch rejects grew by %v, want 2", got)
	}
	if depth := metric(srv, "trustd_batch_queue_depth"); depth != 0 {
		t.Errorf("queue depth %v after batch, want 0", depth)
	}
}

func TestBatchUnknownStoreAndBadAt(t *testing.T) {
	eco, srv := fixture(t)
	chain, _ := symantecChain(t, eco)
	body := ndline(t, map[string]any{"chain_pem": chain, "stores": []string{"NetBSD"}}) +
		ndline(t, map[string]any{"chain_pem": chain, "at": "yesterday"}) +
		ndline(t, map[string]any{"chain_pem": chain, "purpose": "world-domination"})
	lines := postBatch(t, srv, body)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, want := range []string{"unknown provider", "invalid time", "purpose"} {
		if !strings.Contains(lines[i].Error, want) {
			t.Errorf("line %d error = %q, want %q", i, lines[i].Error, want)
		}
	}
}

func TestBatchOversizedLine(t *testing.T) {
	eco, _ := fixture(t)
	// A private server with a tiny per-line cap; the body cap must NOT
	// apply to the stream as a whole.
	inner := service.New(eco.DB, service.Config{MaxBodyBytes: 2048})
	small := ndline(t, map[string]any{"chain_pem": "x", "stores": []string{"NSS"}})
	huge := `{"chain_pem":"` + strings.Repeat("A", 64<<10) + `"}` + "\n"
	lines := postBatch(t, inner, small+huge+small)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	if !strings.Contains(lines[1].Error, "exceeds 2048 bytes") {
		t.Fatalf("oversized line error = %q", lines[1].Error)
	}
	// The stream continued: line 2 got its (chain-parse) answer.
	if lines[2].Seq != 2 {
		t.Fatalf("line after oversized has seq %d, want 2", lines[2].Seq)
	}
	// Total body (>64KiB) exceeded MaxBodyBytes many times over, yet the
	// batch served — while the single endpoint refuses such a body.
	req := httptest.NewRequest(http.MethodPost, "/v1/verify", strings.NewReader(huge))
	rec := httptest.NewRecorder()
	inner.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("single verify with oversized body: status %d, want 413", rec.Code)
	}
}

func TestBatchClientDisconnectDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("drain test skipped in -short mode")
	}
	eco, _ := fixture(t)
	inner := service.New(eco.DB, service.Config{})
	ts := httptest.NewServer(inner.Handler())
	defer ts.Close()
	chain, _ := symantecChain(t, eco)
	line := ndline(t, map[string]any{"chain_pem": chain, "stores": []string{"NSS"}, "at": "2020-11-15"})

	baseline := runtime.NumGoroutine()

	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/verify/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// Feed lines until the pipe breaks (request cancelled).
		for {
			if _, err := io.WriteString(pw, line); err != nil {
				return
			}
		}
	}()
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a few verdict lines to prove the stream is live, then vanish.
	br := bufio.NewReader(res.Body)
	for i := 0; i < 3; i++ {
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("reading verdict line %d: %v", i, err)
		}
	}
	cancel()
	res.Body.Close()
	pw.Close()

	// Workers, reader and writer must all exit promptly and account for
	// every queued job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if metric(inner, "trustd_batch_queue_depth") == 0 && runtime.NumGoroutine() <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("pipeline did not drain: queue=%v goroutines=%d (baseline %d)\n%s",
				metric(inner, "trustd_batch_queue_depth"), runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBatchHotSwapSingleGeneration pins the generation contract: a swap
// installed while a batch is streaming must not leak into it — every
// verdict in one batch comes from the generation the batch started on.
func TestBatchHotSwapSingleGeneration(t *testing.T) {
	roots := testcerts.Roots(1)
	snapDate := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	mkdb := func(trust bool) *store.Database {
		db := store.NewDatabase()
		snap := store.NewSnapshot("Solo", snapDate.Format("2006-01-02"), snapDate)
		e, err := store.NewTrustedEntry(roots[0].DER, store.ServerAuth)
		if err != nil {
			t.Fatal(err)
		}
		if !trust {
			e.SetTrust(store.ServerAuth, store.Distrusted)
		}
		snap.Add(e)
		if err := db.AddSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		return db
	}
	leafDER, _, err := roots[0].IssueLeaf(testcerts.Pool(), certgen.LeafSpec{
		CommonName: "swap.example.test",
		DNSNames:   []string{"swap.example.test"},
		NotBefore:  time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:   time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	var pemBuf bytes.Buffer
	if err := pem.Encode(&pemBuf, &pem.Block{Type: "CERTIFICATE", Bytes: leafDER}); err != nil {
		t.Fatal(err)
	}
	line := ndline(t, map[string]any{"chain_pem": pemBuf.String(), "stores": []string{"Solo"}})

	inner := service.New(mkdb(true), service.Config{})
	ts := httptest.NewServer(inner.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/verify/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	resCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			errCh <- err
			return
		}
		resCh <- res
	}()

	const perPhase = 50
	for i := 0; i < perPhase; i++ {
		if _, err := io.WriteString(pw, line); err != nil {
			t.Fatal(err)
		}
	}
	// Give the pipeline a moment to chew the first phase, then swap to a
	// database where the same chain must FAIL, and stream the rest.
	time.Sleep(200 * time.Millisecond)
	inner.Swap(mkdb(false))
	for i := 0; i < perPhase; i++ {
		if _, err := io.WriteString(pw, line); err != nil {
			t.Fatal(err)
		}
	}
	pw.Close()

	var res *http.Response
	select {
	case res = <-resCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(30 * time.Second):
		t.Fatal("batch response never arrived")
	}
	defer res.Body.Close()

	outcomes := map[string]int{}
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		var l batchLineOut
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if l.Error != "" {
			t.Fatalf("line %d errored: %s", n, l.Error)
		}
		for _, v := range l.Verdicts {
			outcomes[v.Outcome]++
		}
		n++
	}
	if n != 2*perPhase {
		t.Fatalf("got %d lines, want %d", n, 2*perPhase)
	}
	if len(outcomes) != 1 || outcomes["ok"] != 2*perPhase {
		t.Fatalf("mixed verdicts across the swap: %v (want all ok from the pinned generation)", outcomes)
	}
	// New requests DO see the new generation.
	rec := httptest.NewRecorder()
	sreq := httptest.NewRequest(http.MethodPost, "/v1/verify",
		strings.NewReader(fmt.Sprintf(`{"chain_pem":%q,"stores":["Solo"]}`, pemBuf.String())))
	inner.Handler().ServeHTTP(rec, sreq)
	var out struct {
		Verdicts []struct {
			Outcome string `json:"outcome"`
		} `json:"verdicts"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Verdicts) != 1 || out.Verdicts[0].Outcome == "ok" {
		t.Fatalf("post-swap single verify = %+v, want a non-ok outcome", out.Verdicts)
	}
}
