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
	if rowMajor(g) {
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

// rowMajor reports whether g's edges are in row-major (l, r) order, as
// bipartite.FromMatrix builds them; parallel edges may repeat a cell.
func rowMajor(g *bipartite.Graph) bool {
	for i, m := 1, g.EdgeCount(); i < m; i++ {
		a, b := g.Edge(i-1), g.Edge(i)
		if a.L > b.L || (a.L == b.L && a.R > b.R) {
			return false
		}
	}
	return true
}

// SolveCache is a bounded, content-addressed cache of solves. A hit
// returns the retained schedule without running the solver; concurrent
// misses on the same key are coalesced into one solve (single-flight).
// An entry holds only the schedule Solve returned, never a solve
// pipeline.
//
// A schedule depends on the order of the graph's edge list, and the key
// does not, so only row-major graphs share entries: a hit is then always
// byte-identical to Solve of the caller's graph. Any other edge order
// solves uncached.
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

// cacheEntry is one cached solve: an immutable schedule shared with every
// hit.
type cacheEntry struct {
	key   InstanceKey
	sched *Schedule
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
	if g != nil && !rowMajor(g) {
		c.obs.Miss()
		sched, err := Solve(g, k, beta, opts)
		return sched, false, err
	}
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

	sched, err := Solve(g, k, beta, opts)
	f.sched, f.err = sched, err
	close(f.done)

	c.mu.Lock()
	delete(c.flights, key)
	if err == nil {
		c.insertLocked(&cacheEntry{key: key, sched: sched})
	}
	n := c.order.Len()
	c.mu.Unlock()
	c.obs.Miss()
	c.obs.Entries(n)
	return sched, false, err
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
