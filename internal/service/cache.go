package service

import (
	"container/list"
	"hash/fnv"
	"sync"

	"repro/internal/store"
	"repro/internal/verify"
)

// verifierCacheShards is the shard count of the verifier cache. Snapshot
// keys hash roughly uniformly, so a small power of two keeps lock
// contention negligible under concurrent verifies without oversizing the
// table for a ~619-snapshot corpus.
const verifierCacheShards = 16

type verifierShard struct {
	mu sync.RWMutex
	m  map[string]*verify.Verifier
}

// verifierCache is a sharded read-through cache of per-snapshot verifiers.
// Constructing a verifier's cert pools is the expensive step (hundreds of
// AddCert parses per snapshot), so the service builds each at most once and
// shares it across requests — safe now that verify.Verifier locks its lazy
// pools.
type verifierCache struct {
	shards  [verifierCacheShards]verifierShard
	metrics *Metrics
}

func newVerifierCache(m *Metrics) *verifierCache {
	c := &verifierCache{metrics: m}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*verify.Verifier)
	}
	return c
}

func shardFor(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32() % verifierCacheShards
}

// get returns the verifier for the snapshot, building it on first use.
func (c *verifierCache) get(snap *store.Snapshot) *verify.Verifier {
	key := snap.Key()
	sh := &c.shards[shardFor(key)]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		c.metrics.verifierHit.Inc()
		return v
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.m[key]; ok {
		c.metrics.verifierHit.Inc()
		return v
	}
	c.metrics.verifierMiss.Inc()
	v = verify.New(snap)
	sh.m[key] = v
	return v
}

// lruCache is a fixed-capacity LRU for verdicts, keyed on
// (chain-hash, snapshot, purpose, dns-name, time). A plain mutex suffices:
// the guarded section is two map ops and a list splice, orders of magnitude
// cheaper than the chain verification it short-circuits.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

type lruEntry struct {
	key   string
	value verdict
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get looks up a key rendered into a reusable byte buffer. The map index
// expression compiles to an allocation-free lookup (m[string(b)] does not
// copy), which is what keeps the warm verdict path at zero allocations per
// hit.
func (c *lruCache) get(key []byte) (verdict, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		return verdict{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).value, true
}

func (c *lruCache) put(key string, v verdict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).value = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, value: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}
