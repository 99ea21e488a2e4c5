package service

// The verify core: one implementation behind POST /v1/verify and POST
// /v1/verify/batch. A single verify is a batch of one — handleVerify reads
// its (capped) body as one line and runs it through the same four steps a
// batch worker runs on each NDJSON line:
//
//   - decode: the single-pass parser in verifyparse.go, with an
//     encoding/json fallback that owns every error message;
//   - route: (stores, user_agent, at) → snapshots, plus the pre-rendered
//     JSON fragments of each; a batch resolves each distinct tuple once;
//   - chain: DER views and a SHA-256 over the raw DER, the chain's
//     verdict-cache identity — x509 parsing waits for a cache miss;
//   - verdict: a cache lookup per store first; the misses are parsed once
//     and grouped by verification instant. A group of two or more stores
//     builds the chain once against the generation's pool of every
//     certificate (verify.Pool) and each store judges the returned chains;
//     a group of one, and any store the shared build cannot decide, gets
//     one exact build against its own candidates drawn from that pool
//     (Pool.Verify). Each group takes one slot of the shared -workers
//     semaphore; verdicts go back into the cache.
//
// The response object renders from pre-rendered fragments, so both routes
// emit the same bytes; a batch line adds a leading "seq". Errors carry the
// status /v1/verify answers with (400 malformed, 404 unknown ref, 422
// untraceable user agent); a batch renders the same message per line.

import (
	"context"
	"crypto/sha256"
	"crypto/x509"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"encoding/pem"
	"errors"
	"fmt"
	"hash"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/useragent"
	"repro/internal/verify"
)

// verifyRequest is the POST /v1/verify body and one /v1/verify/batch line.
// Only the encoding/json fallback decodes into it; the fast path fills
// lineFields directly.
type verifyRequest struct {
	// ChainPEM holds the chain, leaf first, as concatenated PEM blocks.
	ChainPEM string `json:"chain_pem"`
	// ChainDER is the chain as standard-base64 DER certificates, leaf
	// first. When present it takes precedence over chain_pem.
	ChainDER []string `json:"chain_der,omitempty"`
	// Purpose defaults to server-auth.
	Purpose string `json:"purpose,omitempty"`
	DNSName string `json:"dns_name,omitempty"`
	// UserAgent, when set, is routed through the paper's UA → provider
	// mapping and that provider's store joins the verdicts.
	UserAgent string `json:"user_agent,omitempty"`
	// Stores lists snapshot refs ("NSS", "Debian@Debian-007"); empty plus
	// no user_agent means every provider.
	Stores []string `json:"stores,omitempty"`
	// At is the verification instant (RFC 3339 or YYYY-MM-DD); each
	// snapshot's own date when empty.
	At string `json:"at,omitempty"`
}

// verdict is one store's judgement of a chain — the verdict-cache value.
// The rest of its row (store, provider, date) is pre-rendered per route.
type verdict struct {
	Outcome     string
	Anchor      string // anchor fingerprint, hex
	AnchorLabel string
	Error       string
}

// verifyRoute is the resolved, pre-rendered form of one
// (stores, user_agent, at) tuple.
type verifyRoute struct {
	status int    // non-zero: resolution failed with this HTTP status
	errMsg string // ... and this message
	snaps  []routeSnap
	uaJSON []byte // pre-rendered `"user_agent":{...}` member (or nil)
	atJSON []byte // pre-rendered `,"at":"..."` member (or nil)
}

// routeSnap pre-renders everything about one snapshot in a route: the
// verdict-key fragments and the static prefix of its verdict row.
type routeSnap struct {
	snap  *store.Snapshot
	key   string // snap.Key()
	atRFC string // resolved verification instant, RFC 3339 UTC
	at    time.Time
	pre   []byte // `{"store":"...","provider":"...","date":"..."`
}

// verifyRun is the state one request shares across its lines: the pinned
// serving generation (a hot swap mid-request cannot mix databases in one
// response), the request context and, for a batch, the route cache.
type verifyRun struct {
	s     *Server
	st    *dbState
	ctx   context.Context
	batch bool // NDJSON stream: lines carry "seq" and routes are cached

	mu     sync.Mutex
	routes map[string]*verifyRoute
}

// verifyScratch is one goroutine's reusable decode/verify/encode state,
// recycled through Server.scratch. Its owner uses it exclusively, so none
// of it needs locking.
type verifyScratch struct {
	body     []byte        // request body (single verify)
	out      []byte        // rendered response (single verify)
	req      verifyRequest // encoding/json fallback target
	f        lineFields    // decoded request, byte views end to end
	pemBuf   []byte        // unescape buffer for chain_pem
	routeKey []byte
	keyBuf   []byte
	derBuf   []byte   // decoded DER bytes for the whole chain
	ders     [][]byte // per-certificate views
	certs    []*x509.Certificate
	inter    *x509.CertPool
	rows     []verdictRow // one per route snapshot, in route order
	group    []int        // rows verified together (one instant)
	hasher   hash.Hash
	sum      []byte
	hexBuf   [2 * sha256.Size]byte
}

// verdictRow is one route snapshot's verdict while a line is verified.
type verdictRow struct {
	v    verdict
	hit  bool   // served from the verdict cache
	todo bool   // a miss not yet verified
	key  string // a miss's verdict-cache key, for the put
}

func newVerifyScratch() any {
	return &verifyScratch{hasher: sha256.New()}
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	st := s.cur()
	s.stampGeneration(w, st)
	sc := s.scratch.Get().(*verifyScratch)
	defer s.scratch.Put(sc)
	var ok bool
	if sc.body, ok = s.readBody(w, r, sc.body[:0]); !ok {
		return
	}
	run := verifyRun{s: s, st: st, ctx: r.Context()}
	var status int
	sc.out, status = run.verifyLine(sc, sc.body, 0, sc.out)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	w.Write(sc.out)
}

// verifyLine runs one request through the core and renders its response
// object, newline-terminated, into out: the verdicts with 200, or the
// {"error":…} envelope with the status /v1/verify answers. The
// user_agent routing explanation rides both whenever the request named
// one.
func (b *verifyRun) verifyLine(sc *verifyScratch, line []byte, seq int, out []byte) ([]byte, int) {
	if err := sc.decode(line); err != nil {
		return b.appendError(out, seq, nil, err.Error()), http.StatusBadRequest
	}
	f := &sc.f
	purpose := store.ServerAuth
	if len(f.purpose) != 0 {
		var err error
		if purpose, err = store.ParsePurpose(string(f.purpose)); err != nil {
			return b.appendError(out, seq, nil, err.Error()), http.StatusBadRequest
		}
	}
	rt := b.route(sc)
	if rt.status != 0 {
		return b.appendError(out, seq, rt.uaJSON, rt.errMsg), rt.status
	}
	if err := sc.decodeChain(); err != nil {
		return b.appendError(out, seq, rt.uaJSON, err.Error()), http.StatusBadRequest
	}

	out = b.appendOpen(out[:0], seq)
	out = append(out, `"chain_sha256":"`...)
	out = append(out, sc.hexBuf[:]...)
	out = append(out, `","purpose":"`...)
	out = append(out, purpose.String()...)
	out = append(out, '"')
	out = append(out, rt.atJSON...)
	if rt.uaJSON != nil {
		out = append(out, ',')
		out = append(out, rt.uaJSON...)
	}
	if err := b.verdicts(sc, rt, purpose); err != nil {
		return b.appendError(out, seq, rt.uaJSON, err.Error()), http.StatusBadRequest
	}
	out = append(out, `,"verdicts":[`...)
	for i := range rt.snaps {
		if i > 0 {
			out = append(out, ',')
		}
		row := &sc.rows[i]
		b.countVerdict(row.v.Outcome, row.hit)
		out = appendVerdictJSON(out, rt.snaps[i].pre, &row.v, row.hit)
	}
	return append(out, ']', '}', '\n'), http.StatusOK
}

// decode fills sc.f from one request: the single-pass parser when the
// request has the plain shape, encoding/json otherwise — which is also the
// arbiter of validity and of the error message.
func (sc *verifyScratch) decode(line []byte) error {
	f := &sc.f
	if fastParseLine(line, f, &sc.pemBuf) {
		return nil
	}
	req := &sc.req
	*req = verifyRequest{Stores: req.Stores[:0], ChainDER: req.ChainDER[:0]}
	if err := json.Unmarshal(line, req); err != nil {
		return fmt.Errorf("invalid JSON: %v", err)
	}
	f.reset()
	sc.pemBuf = append(sc.pemBuf[:0], req.ChainPEM...)
	f.chainPEM = sc.pemBuf
	for _, d := range req.ChainDER {
		f.chainDER = append(f.chainDER, []byte(d))
	}
	for _, ref := range req.Stores {
		f.stores = append(f.stores, []byte(ref))
	}
	f.ua, f.at = []byte(req.UserAgent), []byte(req.At)
	f.purpose, f.dnsName = []byte(req.Purpose), []byte(req.DNSName)
	return nil
}

// decodeChain fills sc.ders with the chain's DER certificates, leaf first,
// and sc.hexBuf with the hex SHA-256 over them — the chain's verdict-cache
// identity, computed without x509 parsing.
func (sc *verifyScratch) decodeChain() error {
	f := &sc.f
	sc.ders, sc.certs, sc.inter = sc.ders[:0], sc.certs[:0], nil
	if len(f.chainDER) > 0 {
		// Decode into one contiguous buffer; record the split offsets
		// first, then re-slice (the buffer may move while growing).
		sc.derBuf = sc.derBuf[:0]
		offs := make([]int, 0, 8)
		for i, b64 := range f.chainDER {
			start := len(sc.derBuf)
			sc.derBuf = append(sc.derBuf, make([]byte, base64.StdEncoding.DecodedLen(len(b64)))...)
			n, err := base64.StdEncoding.Decode(sc.derBuf[start:], b64)
			if err != nil {
				return fmt.Errorf("chain_der[%d]: %v", i, err)
			}
			sc.derBuf = sc.derBuf[:start+n]
			offs = append(offs, start)
		}
		for i, start := range offs {
			end := len(sc.derBuf)
			if i+1 < len(offs) {
				end = offs[i+1]
			}
			sc.ders = append(sc.ders, sc.derBuf[start:end])
		}
	} else {
		rest := f.chainPEM
		for {
			var block *pem.Block
			if block, rest = pem.Decode(rest); block == nil {
				break
			}
			if block.Type == "CERTIFICATE" {
				sc.ders = append(sc.ders, block.Bytes)
			}
		}
	}
	if len(sc.ders) == 0 {
		return errors.New("chain contains no certificates")
	}
	sc.hasher.Reset()
	for _, der := range sc.ders {
		sc.hasher.Write(der)
	}
	sc.sum = sc.hasher.Sum(sc.sum[:0])
	hex.Encode(sc.hexBuf[:], sc.sum)
	return nil
}

// verdicts fills sc.rows with every route snapshot's verdict on the
// decoded chain. A verdict-cache hit is a lookup and nothing more. The
// misses parse the chain (once per request) and are verified in groups
// of one instant (verifyGroup). The error is the chain's x509 parse
// failure.
func (b *verifyRun) verdicts(sc *verifyScratch, rt *verifyRoute, purpose store.Purpose) error {
	sc.rows = sc.rows[:0]
	misses := 0
	for i := range rt.snaps {
		key := sc.verdictKey(&rt.snaps[i], purpose)
		v, hit := b.st.verdicts.get(key)
		row := verdictRow{v: v, hit: hit}
		if !hit {
			row.todo, row.key = true, string(key)
			misses++
		}
		sc.rows = append(sc.rows, row)
	}
	if misses == 0 {
		return nil
	}
	if len(sc.certs) == 0 {
		for i, der := range sc.ders {
			cert, err := x509.ParseCertificate(der)
			if err != nil {
				return fmt.Errorf("certificate %d in chain: %v", i, err)
			}
			sc.certs = append(sc.certs, cert)
		}
		sc.inter = verify.PoolIntermediates(sc.certs[1:])
	}
	for i := range sc.rows {
		if !sc.rows[i].todo {
			continue
		}
		at := rt.snaps[i].at
		sc.group = sc.group[:0]
		for j := i; j < len(sc.rows); j++ {
			if sj := rt.snaps[j].at; sc.rows[j].todo && sj.Equal(at) && sj.Location() == at.Location() {
				sc.rows[j].todo = false
				sc.group = append(sc.group, j)
			}
		}
		b.verifyGroup(sc, rt, purpose)
	}
	return nil
}

// verdictKey renders the verdict-cache key of the chain against one route
// snapshot into scratch: (chain hash, snapshot, purpose, DNS name,
// instant).
func (sc *verifyScratch) verdictKey(sk *routeSnap, purpose store.Purpose) []byte {
	key := append(sc.keyBuf[:0], sc.hexBuf[:]...)
	key = append(key, '|')
	key = append(key, sk.key...)
	key = append(key, '|')
	key = append(key, purpose.String()...)
	key = append(key, '|')
	key = append(key, sc.f.dnsName...)
	key = append(key, '|')
	key = append(key, sk.atRFC...)
	sc.keyBuf = key
	return key
}

// verifyGroup verifies the chain against the snapshots of sc.group, which
// share one verification instant, under one -workers slot, and caches
// each verdict. Two or more stores build the chain once against the
// generation's shared pool inside a verify.chain span and judge it per
// store; a lone store, and any store the shared build cannot decide, is
// built against its own candidates from that pool. Each store gets a
// verify.store span. If the context dies while waiting for the slot every
// row reads "timeout".
func (b *verifyRun) verifyGroup(sc *verifyScratch, rt *verifyRoute, purpose store.Purpose) {
	depth := strconv.Itoa(len(sc.certs))
	storeSpan := func(sk *routeSnap) *obs.Span {
		span := obs.StartLeafSpan(b.ctx, "verify.store")
		span.Annotate("store", sk.key)
		span.Annotate("chain_depth", depth)
		return span
	}
	// The span around the slot wait opens first, so queue wait is part of
	// it. Annotate (bounded, drop-not-grow) keeps span records small.
	var wait *obs.Span
	if len(sc.group) > 1 {
		wait = obs.StartLeafSpan(b.ctx, "verify.chain")
		wait.Annotate("stores", strconv.Itoa(len(sc.group)))
		wait.Annotate("chain_depth", depth)
	} else {
		wait = storeSpan(&rt.snaps[sc.group[0]])
	}
	select {
	case b.s.sem <- struct{}{}:
	case <-b.ctx.Done():
		v := verdict{Outcome: "timeout", Error: b.ctx.Err().Error()}
		for _, i := range sc.group {
			sc.rows[i].v = v
		}
		wait.Annotate("outcome", v.Outcome)
		wait.End()
		return
	}
	defer func() { <-b.s.sem }()

	req := verify.Request{
		Leaf:          sc.certs[0],
		Intermediates: sc.certs[1:],
		InterPool:     sc.inter,
		Purpose:       purpose,
		DNSName:       string(sc.f.dnsName),
		At:            rt.snaps[sc.group[0]].at,
	}
	pool := b.st.verifyPool(b.s)
	var shared *verify.Chains
	if len(sc.group) > 1 {
		if shared = pool.Build(req); shared != nil {
			b.s.metrics.sharedBuilds.Inc()
			wait.Annotate("chains", strconv.Itoa(shared.Len()))
		} else {
			wait.Annotate("chains", "per-store")
		}
		wait.End()
	}
	for _, i := range sc.group {
		sk := &rt.snaps[i]
		span := wait
		if len(sc.group) > 1 {
			span = storeSpan(sk)
		}
		var res verify.Result
		ok := false
		if shared != nil {
			res, ok = shared.Judge(sk.snap, purpose)
		}
		if !ok {
			b.s.metrics.perStoreBuilds.Inc()
			res = pool.Verify(sk.snap, req)
		}
		v := verdict{Outcome: res.Outcome.String()}
		if res.Anchor != nil {
			v.Anchor = res.Anchor.Fingerprint.String()
			v.AnchorLabel = res.Anchor.Label
		}
		if res.Err != nil {
			v.Error = res.Err.Error()
		}
		sc.rows[i].v = v
		b.st.verdicts.put(sc.rows[i].key, v)
		span.Annotate("outcome", v.Outcome)
		span.End()
	}
}

// countVerdict records one emitted verdict: a few atomic adds, the
// outcome's counter found without locking or allocating.
func (b *verifyRun) countVerdict(outcome string, hit bool) {
	m := b.s.metrics
	if hit {
		m.verdictHit.Inc()
	} else {
		m.verdictMiss.Inc()
	}
	m.outcomes.With(outcome).Inc()
	m.verified.Inc()
	if b.batch {
		m.batchVerdicts.Inc()
	}
}

// route returns the resolved route for the request's
// (stores, user_agent, at) tuple. A batch caches it under a composite key
// built in scratch, so a line whose tuple was seen before allocates
// nothing here.
func (b *verifyRun) route(sc *verifyScratch) *verifyRoute {
	f := &sc.f
	if !b.batch {
		return b.resolveRoute(f)
	}
	key := append(sc.routeKey[:0], f.ua...)
	key = append(key, 0x1f)
	key = append(key, f.at...)
	for _, ref := range f.stores {
		key = append(key, 0x1f)
		key = append(key, ref...)
	}
	sc.routeKey = key

	b.mu.Lock()
	rt := b.routes[string(key)]
	b.mu.Unlock()
	if rt != nil {
		return rt
	}
	rt = b.resolveRoute(f)
	b.mu.Lock()
	if exist := b.routes[string(key)]; exist != nil {
		rt = exist
	} else {
		b.routes[string(key)] = rt
	}
	b.mu.Unlock()
	return rt
}

// resolveRoute applies the routing rules — UA→store mapping, provider
// fallback, snapshot resolution at the requested instant — and
// pre-renders every per-snapshot fragment the verdict loop needs.
func (b *verifyRun) resolveRoute(f *lineFields) *verifyRoute {
	rt := &verifyRoute{}
	fail := func(status int, msg string) *verifyRoute {
		rt.status, rt.errMsg = status, msg
		return rt
	}
	at, err := parseAt(string(f.at))
	if err != nil {
		return fail(http.StatusBadRequest, err.Error())
	}
	if !at.IsZero() {
		rt.atJSON = append(append([]byte(`,"at":"`), at.UTC().AppendFormat(nil, time.RFC3339Nano)...), '"')
	}

	refs := make([]string, len(f.stores), len(f.stores)+1)
	for i, ref := range f.stores {
		refs[i] = string(ref)
	}
	if len(f.ua) != 0 {
		agent := useragent.Parse(string(f.ua))
		mapped := useragent.MapToProvider(agent)
		ua := []byte(`"user_agent":{"browser":`)
		ua = appendJSONString(ua, string(agent.Browser))
		ua = append(ua, `,"os":`...)
		ua = appendJSONString(ua, string(agent.OS))
		if mapped.Provider != "" {
			ua = append(ua, `,"provider":`...)
			ua = appendJSONString(ua, string(mapped.Provider))
		}
		ua = append(ua, `,"traceable":`...)
		ua = strconv.AppendBool(ua, mapped.Traceable)
		ua = append(ua, `,"reason":`...)
		ua = appendJSONString(ua, mapped.Reason)
		rt.uaJSON = append(ua, '}')
		if mapped.Traceable {
			refs = append(refs, string(mapped.Provider))
		} else if len(refs) == 0 {
			// The paper could not trace this client to a store and the
			// caller named no fallback: nothing to verify against.
			return fail(http.StatusUnprocessableEntity, "user agent is not traceable to a store and no stores were given")
		}
	}
	if len(refs) == 0 {
		refs = b.st.db.Providers()
	}

	seen := map[string]bool{}
	for _, ref := range refs {
		snap, err := b.st.resolveSnapshot(ref, at)
		if err != nil {
			var re *refError
			if errors.As(err, &re) && re.notFound {
				return fail(http.StatusNotFound, err.Error())
			}
			return fail(http.StatusBadRequest, err.Error())
		}
		if seen[snap.Key()] {
			continue
		}
		seen[snap.Key()] = true
		snapAt := at
		if snapAt.IsZero() {
			snapAt = snap.Date
		}
		pre := []byte(`{"store":`)
		pre = appendJSONString(pre, snap.Key())
		pre = append(pre, `,"provider":`...)
		pre = appendJSONString(pre, snap.Provider)
		pre = append(pre, `,"date":"`...)
		pre = snap.Date.UTC().AppendFormat(pre, time.RFC3339Nano)
		pre = append(pre, '"')
		rt.snaps = append(rt.snaps, routeSnap{
			snap:  snap,
			key:   snap.Key(),
			at:    snapAt,
			atRFC: snapAt.UTC().Format(time.RFC3339),
			pre:   pre,
		})
	}
	return rt
}

// appendOpen starts a response object; a batch line leads with its "seq".
func (b *verifyRun) appendOpen(out []byte, seq int) []byte {
	out = append(out, '{')
	if b.batch {
		out = append(out, `"seq":`...)
		out = strconv.AppendInt(out, int64(seq), 10)
		out = append(out, ',')
	}
	return out
}

// appendError renders an error object over out:
// {"seq":N,"user_agent":{...},"error":"..."}, seq for a batch line only.
// One malformed batch line costs itself, not the stream.
func (b *verifyRun) appendError(out []byte, seq int, uaJSON []byte, msg string) []byte {
	out = b.appendOpen(out[:0], seq)
	if uaJSON != nil {
		out = append(out, uaJSON...)
		out = append(out, ',')
	}
	out = append(out, `"error":`...)
	out = appendJSONString(out, msg)
	return append(out, '}', '\n')
}

// appendVerdictJSON renders one verdict row from its snapshot's
// pre-rendered prefix plus the dynamic fields, without encoding/json.
func appendVerdictJSON(buf, pre []byte, v *verdict, cached bool) []byte {
	buf = append(buf, pre...)
	buf = append(buf, `,"outcome":"`...)
	buf = append(buf, v.Outcome...)
	buf = append(buf, '"')
	if v.Anchor != "" {
		buf = append(buf, `,"anchor":"`...)
		buf = append(buf, v.Anchor...)
		buf = append(buf, '"')
		if v.AnchorLabel != "" {
			buf = append(buf, `,"anchor_label":`...)
			buf = appendJSONString(buf, v.AnchorLabel)
		}
	}
	if v.Error != "" {
		buf = append(buf, `,"error":`...)
		buf = appendJSONString(buf, v.Error)
	}
	if cached {
		buf = append(buf, `,"cached":true`...)
	}
	return append(buf, '}')
}

// appendJSONString appends s as a quoted, escaped JSON string. Multi-byte
// UTF-8 passes through unescaped (valid JSON); only the structural
// characters and control bytes are escaped.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			continue
		}
		buf = append(buf, s[start:i]...)
		switch c {
		case '"':
			buf = append(buf, '\\', '"')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			const hexDigits = "0123456789abcdef"
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
