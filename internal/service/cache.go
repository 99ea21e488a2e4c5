package service

import (
	"container/list"
	"sync"
)

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
