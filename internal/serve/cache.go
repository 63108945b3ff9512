package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"

	"pioeval/internal/campaign"
)

// specKey digests a canonical (defaults-applied) spec, as Spec.Canonical
// returns it, so every textual spelling of the same campaign maps to one
// cache slot and one single-flight. Campaign reports are deterministic
// per canonical spec — identical points per seed — so serving a cached
// body is exact, not approximate.
func specKey(canonical campaign.Spec) string {
	b, err := json.Marshal(canonical)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it.
		panic("serve: marshal canonical spec: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// resultCache is a bounded LRU over finished report payloads, keyed by
// specKey. Values are the exact response bodies, so a hit costs one map
// lookup and zero re-serialization.
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recent
	items map[string]*list.Element
}

type cacheEntry struct {
	key     string
	payload []byte
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *resultCache) get(key string) ([]byte, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).payload, true
}

func (c *resultCache) put(key string, payload []byte) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).payload = payload
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, payload: payload})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
