package serve

import (
	"slices"
	"sync"
)

// bodyCacheBytes is the rendered-body cache's byte budget. One snapshot
// version of a 3-member ensemble queried on a 144x72 and a 72x36 grid
// renders about 0.8 MB of field and ensemble bodies; a single body
// larger than the budget (a grid near the 2048x1024 limit) is rendered
// and served uncached.
const bodyCacheBytes = 8 << 20

// bodyKey names one cacheable response: a /v1/field slice of one
// member, or, with member -1, a /v1/ensemble statistic.
type bodyKey struct {
	member            int
	field             string
	level, nlon, nlat int
}

type bodyEntry struct {
	vers []int64 // per member, the snapshot version rendered from; 0 = not used
	body []byte
	used uint64 // cache clock at the last get or put
}

// bodyCache holds rendered response bodies. A published snapshot never
// changes, so a body rendered from a set of member versions is the right
// answer for as long as those versions are the members' latest: a hit
// costs one map lookup and the byte copy to the client. Every put first
// drops the entries a publish has superseded, so the cache holds bodies
// of current versions only, and evicts least recently used entries to
// stay within budget.
type bodyCache struct {
	store  *Store
	budget int

	mu    sync.Mutex
	m     map[bodyKey]*bodyEntry
	bytes int
	clock uint64
}

// get returns the body cached for key if it was rendered from exactly
// vers.
func (c *bodyCache) get(key bodyKey, vers []int64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok || !slices.Equal(e.vers, vers) {
		return nil, false
	}
	c.clock++
	e.used = c.clock
	return e.body, true
}

// put caches body, freshly rendered from vers, under key. The cache
// keeps vers and body; neither may change afterwards.
func (c *bodyCache) put(key bodyKey, vers []int64, body []byte) {
	c.store.reg.Counter("serve.bodies.rendered").Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.m {
		if k == key || !c.current(e.vers) {
			c.drop(k, e)
		}
	}
	if len(body) > c.budget || !c.current(vers) {
		return
	}
	for c.bytes+len(body) > c.budget {
		var lk bodyKey
		var lru *bodyEntry
		for k, e := range c.m {
			if lru == nil || e.used < lru.used {
				lk, lru = k, e
			}
		}
		c.drop(lk, lru)
	}
	if c.m == nil {
		c.m = map[bodyKey]*bodyEntry{}
	}
	c.clock++
	c.m[key] = &bodyEntry{vers: vers, body: body, used: c.clock}
	c.bytes += len(body)
}

func (c *bodyCache) drop(k bodyKey, e *bodyEntry) {
	delete(c.m, k)
	c.bytes -= len(e.body)
}

// current reports whether every version in vers is still its member's
// latest snapshot.
func (c *bodyCache) current(vers []int64) bool {
	for i, v := range vers {
		if v == 0 {
			continue
		}
		if meta, ok := c.store.Latest(i); !ok || meta.Version != v {
			return false
		}
	}
	return true
}
