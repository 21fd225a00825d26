package kpbs

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"redistgo/internal/bipartite"
	"redistgo/internal/obs"
)

// InstanceKey is the content address of a solve: a SHA-256 digest of the
// canonicalized instance (algorithm, k, β, Pack, sharding, dimensions,
// and the sorted edge list). Two graphs that contain the same cells with
// the same raw weights hash identically no matter what order their edge
// lists were built in; instances differing in any solve parameter — k, β,
// algorithm, Pack, sharding — never share a key.
type InstanceKey [sha256.Size]byte

// HashInstance computes the content address of the instance (g, k, β)
// under opts. The digest covers raw (pre-normalization) weights: two
// instances whose weights differ only within a β bucket solve to different
// raw schedules, so they must not collide. Edges are hashed in sorted
// (l, r) order, NOT insertion order — the address is a function of the
// traffic matrix, not of the graph's construction history.
func HashInstance(g *bipartite.Graph, k int, beta int64, opts Options) InstanceKey {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:]) // hash.Hash writes never fail
	}
	put(uint64(opts.Algorithm))
	put(uint64(opts.Shard))
	var pack uint64
	if opts.Pack {
		pack = 1
	}
	put(pack)
	put(uint64(k))
	put(uint64(beta))
	if g == nil {
		var key InstanceKey
		h.Sum(key[:0])
		return key
	}
	put(uint64(g.LeftCount()))
	put(uint64(g.RightCount()))
	// The common case — a canonically ordered graph (bipartite.FromMatrix)
	// — hashes edges in place; only a non-canonical edge list pays for the
	// copy+sort. This keeps the serve-path lookup allocation-free.
	sorted := true
	for i, m := 1, g.EdgeCount(); i < m; i++ {
		a, b := g.Edge(i-1), g.Edge(i)
		if a.L > b.L || (a.L == b.L && a.R > b.R) {
			sorted = false
			break
		}
	}
	if sorted {
		for i, m := 0, g.EdgeCount(); i < m; i++ {
			e := g.Edge(i)
			put(uint64(e.L))
			put(uint64(e.R))
			put(uint64(e.Weight))
		}
	} else {
		edges := g.Edges()
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].L != edges[j].L {
				return edges[i].L < edges[j].L
			}
			return edges[i].R < edges[j].R
		})
		for _, e := range edges {
			put(uint64(e.L))
			put(uint64(e.R))
			put(uint64(e.Weight))
		}
	}
	var key InstanceKey
	h.Sum(key[:0])
	return key
}

// SolveCache is a bounded, content-addressed cache of solves. A hit
// returns the retained schedule without running the solver; concurrent
// misses on the same key are coalesced into one solve (single-flight).
// Entries also retain the full Result, so a delta-solving caller can
// Checkout a warm base instead of rebuilding one.
//
// All methods are safe for concurrent use.
type SolveCache struct {
	mu      sync.Mutex
	cap     int
	obs     *obs.CacheObs
	entries map[InstanceKey]*list.Element
	order   *list.List // front = most recently used
	flights map[InstanceKey]*cacheFlight
}

// cacheEntry is one cached solve. sched is an immutable snapshot shared
// with every hit; res is the retained warm base, transferred exclusively
// by Checkout.
type cacheEntry struct {
	key   InstanceKey
	sched *Schedule
	res   *Result
}

// cacheFlight is an in-progress solve other callers of the same key wait
// on.
type cacheFlight struct {
	done  chan struct{}
	sched *Schedule
	err   error
}

// NewSolveCache builds a cache bounded to capacity entries (≥ 1), wired
// to the observer's solver.cache.* metrics (nil o disables them).
func NewSolveCache(capacity int, o *obs.Observer) *SolveCache {
	if capacity < 1 {
		capacity = 1
	}
	return &SolveCache{
		cap:     capacity,
		obs:     o.Cache(),
		entries: make(map[InstanceKey]*list.Element),
		order:   list.New(),
		flights: make(map[InstanceKey]*cacheFlight),
	}
}

// Len returns the current number of cached entries.
func (c *SolveCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// GetOrSolve returns the schedule of the instance (g, k, β) under opts,
// serving it from the cache when the content address is present and
// solving (then caching) otherwise. The second return reports whether the
// solver was skipped — a cache hit or a coalesced concurrent solve. The
// returned schedule is shared and MUST be treated as immutable.
//
// Errors are not cached: every caller of a failing key re-attempts, and
// concurrent waiters of a failed flight receive the flight's error.
func (c *SolveCache) GetOrSolve(g *bipartite.Graph, k int, beta int64, opts Options) (*Schedule, bool, error) {
	key := HashInstance(g, k, beta, opts)
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		sched := el.Value.(*cacheEntry).sched
		c.mu.Unlock()
		c.obs.Hit()
		return sched, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		c.obs.Coalesced()
		return f.sched, true, f.err
	}
	f := &cacheFlight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	res, err := NewResult(g, k, beta, opts)
	var sched *Schedule
	if err == nil {
		sched = res.Schedule().Clone()
	}
	f.sched, f.err = sched, err
	close(f.done)

	c.mu.Lock()
	delete(c.flights, key)
	if err == nil {
		c.insertLocked(&cacheEntry{key: key, sched: sched, res: res})
	}
	n := c.order.Len()
	c.mu.Unlock()
	c.obs.Miss()
	c.obs.Entries(n)
	return sched, false, err
}

// Checkout transfers exclusive ownership of a warm Result for the
// instance (g, k, β): on a cache hit the entry is removed and its
// retained Result returned (no other holder exists — hits only ever share
// the schedule snapshot); on a miss a fresh Result is built, uncached.
// The second return reports whether the base came from the cache.
func (c *SolveCache) Checkout(g *bipartite.Graph, k int, beta int64, opts Options) (*Result, bool, error) {
	key := HashInstance(g, k, beta, opts)
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			ent := el.Value.(*cacheEntry)
			c.order.Remove(el)
			delete(c.entries, key)
			n := c.order.Len()
			c.mu.Unlock()
			c.obs.Checkout()
			c.obs.Entries(n)
			return ent.res, true, nil
		}
		f, ok := c.flights[key]
		c.mu.Unlock()
		if !ok {
			break
		}
		// A solve of this key is in progress; wait for it to land and
		// retry the checkout (it may win the entry, or fail).
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
	}
	res, err := NewResult(g, k, beta, opts)
	if err != nil {
		return nil, false, err
	}
	return res, false, nil
}

// insertLocked adds an entry and evicts from the LRU back past capacity.
// Callers hold c.mu.
func (c *SolveCache) insertLocked(ent *cacheEntry) {
	if el, ok := c.entries[ent.key]; ok {
		// A concurrent flight of the same key landed first; keep the
		// incumbent (identical content) and refresh its recency.
		c.order.MoveToFront(el)
		return
	}
	c.entries[ent.key] = c.order.PushFront(ent)
	evicted := 0
	for c.order.Len() > c.cap {
		back := c.order.Back()
		old := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, old.key)
		evicted++
	}
	if evicted > 0 {
		c.obs.Evicted(evicted)
	}
}

// String renders the key as a short hex prefix for logs.
func (k InstanceKey) String() string {
	return fmt.Sprintf("%x", k[:8])
}
