package serve

// The warm-model cache. Building a T-Mark model normalizes the
// adjacency tensor into O and R and materialises the feature matrix W —
// work worth doing once per (dataset, hyperparameters) pair, after which
// the model is immutable and serves any number of concurrent queries.
// The cache is LRU-bounded: hyperparameter overrides mint new keys, and
// without a bound a scan over (say) alpha values would pin one model
// per step forever. Each entry owns the coalescer batching requests
// against its model; eviction retires the coalescer gracefully (accepted
// work finishes at full quality) while new requests rebuild the entry.
//
// A retired entry's model may still be in use: its coalescer answers
// the batches it accepted, and a /v1/rank or /v1/diff borrower may be
// mid-solve on it. Nothing has to be released for that. Activation
// reads a blob into memory and verifies it, and the garbage collector
// frees those bytes once no entry or solve holds the model.
//
// An entry leaves the cache by eviction, by quarantine or by drain, and
// no other way: every key names fixed bytes (see source), so no entry
// ever goes stale.

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"tmark/internal/fault"
	"tmark/internal/tmark"
)

// modelKey identifies one warm model: the bytes it serves plus the full
// hyperparameter set. A hash alone names exact bytes — a pin, or a live
// engine's committed version — and every build of the key hashes to it.
// A name with a hash is a floating name the registry resolved to that
// blob, with the name's graph as its rebuild fallback; a name alone is a
// model built from its loaded graph. tmark.Config is a flat comparable
// struct, so the key works directly as a map key.
type modelKey struct {
	name string
	hash string
	cfg  tmark.Config
}

// display names the key for humans: fault hooks and logs.
func (k modelKey) display() string {
	if k.name != "" {
		return k.name
	}
	return "sha256-" + k.hash[:16]
}

// buildResult is what a builder hands back: the servable model and the
// content hash identifying the substrate it runs on (the blob's hash for
// an artifact activation, the version's hash for an engine build, the
// canonical encoding's hash for a raw build).
type buildResult struct {
	model *tmark.Model
	hash  string
}

// warmModel is one cache entry. ready is closed once the build finished
// (successfully or not); concurrent requests for the same key wait on it
// instead of building twice.
type warmModel struct {
	key   modelKey
	ready chan struct{}
	model *tmark.Model
	coal  *coalescer
	err   error
	elem  *list.Element

	// hash is the content identity of the substrate this entry serves —
	// echoed in every response, so a client can pin exactly what
	// answered it.
	hash string
	// retired is set when the entry leaves the cache, under
	// modelCache.mu.
	retired bool

	// The full multi-class solves backing /v1/rank, each computed lazily at
	// most once per warm model: the reference solve (serving the exact
	// and accelerated tiers) and the linearized fast-tier solve. They run
	// under the server's drain context — NOT the coalescer's solveCtx —
	// because eviction retires the coalescer (which ends by cancelling
	// solveCtx) while a /v1/rank borrower may still be mid-solve: an evicted
	// model must finish its borrowed work at full quality. Only the
	// server drain cancels rankCtx.
	rankCtx  context.Context
	fullOnce sync.Once
	full     *tmark.Result
	fastOnce sync.Once
	fastFull *tmark.Result
}

// fullResult lazily runs the full multi-class solve for /v1/rank. The
// model's own ICA setting applies here (this is the dataset's real
// class structure, where the cross-class reseed is meaningful). A
// server drain cancels rankCtx, and the solve returns its partial
// result within one iteration.
func (e *warmModel) fullResult() *tmark.Result {
	e.fullOnce.Do(func() {
		e.full = e.model.RunContext(e.rankCtx)
	})
	return e.full
}

// fastResult lazily runs the linearized approximate solve for
// /v1/rank?quality=fast: one linear solve per class.
func (e *warmModel) fastResult() *tmark.Result {
	e.fastOnce.Do(func() {
		e.fastFull = e.model.RunContext(e.rankCtx, tmark.WithApproximate(true))
	})
	return e.fastFull
}

// modelCache is the LRU map of warm models.
type modelCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[modelKey]*warmModel
	order    *list.List // front = most recently used
	newCoal  func(*tmark.Model) *coalescer
	met      *metrics
	rankCtx  context.Context // every entry's /v1/rank solve context
}

func newModelCache(rankCtx context.Context, capacity int, newCoal func(*tmark.Model) *coalescer, met *metrics) *modelCache {
	if capacity < 1 {
		capacity = 1
	}
	return &modelCache{
		rankCtx:  rankCtx,
		capacity: capacity,
		entries:  make(map[modelKey]*warmModel),
		order:    list.New(),
		newCoal:  newCoal,
		met:      met,
	}
}

// get returns the ready warm model for key, building it with build on a
// miss. The build runs outside the cache lock (models can be
// expensive), with duplicate requests for the same key waiting on the
// first builder. Failed builds are not cached: the placeholder is
// removed so a later request can retry.
func (c *modelCache) get(key modelKey, build builder) (*warmModel, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.order.MoveToFront(e.elem)
		c.mu.Unlock()
		if c.met != nil {
			c.met.cacheHits.Inc()
		}
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		return e, nil
	}
	e := &warmModel{key: key, ready: make(chan struct{}), rankCtx: c.rankCtx}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	var evicted []*warmModel
	for len(c.entries) > c.capacity {
		old := c.order.Back().Value.(*warmModel)
		evicted = append(evicted, old)
		c.removeLocked(old)
	}
	c.mu.Unlock()
	if c.met != nil {
		c.met.cacheMisses.Inc()
	}
	for _, old := range evicted {
		if c.met != nil {
			c.met.cacheEvictions.Inc()
		}
		if fault.Enabled() {
			fault.Fire(fault.ServeCacheEvict, old.key.display())
		}
		// Retire asynchronously: the evicted coalescer finishes its
		// accepted work before going away, and a slow drain must not
		// stall the request that triggered the eviction.
		go func(old *warmModel) {
			<-old.ready
			if old.coal != nil {
				old.coal.stop()
			}
		}(old)
	}

	br, err := c.buildSafe(key, build)
	if err != nil {
		e.err = err
		close(e.ready)
		c.mu.Lock()
		if cur, ok := c.entries[key]; ok && cur == e {
			c.removeLocked(e)
		}
		c.mu.Unlock()
		return nil, err
	}
	e.model, e.hash = br.model, br.hash
	e.coal = c.newCoal(e.model)
	e.coal.onPanic = func() { c.quarantine(e) }
	close(e.ready)
	return e, nil
}

// removeLocked takes e, which must be in the cache, out of it under
// c.mu and retires it.
func (c *modelCache) removeLocked(e *warmModel) {
	delete(c.entries, e.key)
	c.order.Remove(e.elem)
	e.retired = true
}

// buildSafe runs the model build behind a panic barrier. A crashing
// build fails like an erroring one — the placeholder entry is removed
// so the next request retries the build — instead of tearing down the
// request goroutine with waiters still parked on the entry.
func (c *modelCache) buildSafe(key modelKey, build builder) (br buildResult, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			br, err = buildResult{}, fmt.Errorf("%w: model build panicked: %v", ErrModelFault, rec)
			if c.met != nil {
				c.met.panics.Inc()
			}
		}
	}()
	if fault.Enabled() {
		if err := fault.Check(fault.ServeModelBuild); err != nil {
			return buildResult{}, err
		}
		fault.Fire(fault.ServeModelBuild, key.display())
	}
	return build()
}

// quarantine drops a faulting entry from the cache so the next request
// for its key rebuilds the model from the immutable graph (waiters
// coalesce on the rebuild exactly like a cold miss). The entry's
// coalescer retires asynchronously once its queue is answered; its
// remaining jobs finish against the old model — at worst with another
// ErrModelFault, never a wrong answer. Only an entry still in the cache
// is quarantined, so each is counted and stopped at most once: a fault
// on an entry that has already left it (quarantined by an overlapping
// batch, or evicted or drained) changes nothing, because whatever
// retired the entry has already stopped its coalescer.
func (c *modelCache) quarantine(e *warmModel) {
	c.mu.Lock()
	if e.retired {
		c.mu.Unlock()
		return
	}
	c.removeLocked(e)
	c.mu.Unlock()
	if c.met != nil {
		c.met.quarantines.Inc()
	}
	go func() {
		<-e.ready
		if e.coal != nil {
			e.coal.stop()
		}
	}()
}

// snapshot returns the current entries without touching LRU order.
func (c *modelCache) snapshot() []*warmModel {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*warmModel, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	return out
}

// queueDepth sums the admission-queue lengths of every ready entry —
// the tmarkd_queue_depth gauge.
func (c *modelCache) queueDepth() int {
	total := 0
	for _, e := range c.snapshot() {
		select {
		case <-e.ready:
			if e.coal != nil {
				total += e.coal.depth()
			}
		default:
		}
	}
	return total
}

// stopAll empties the cache: it retires every entry, closes every
// coalescer's intake and blocks until each coalescer has answered its
// batches in flight and its queue; entries still building are stopped
// once they are ready. Drain calls it after cancelling the server's
// drain context, so every answer is a partial result returned within
// one solver iteration.
func (c *modelCache) stopAll() {
	c.mu.Lock()
	var all []*warmModel
	for _, e := range c.entries {
		all = append(all, e)
		c.removeLocked(e)
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, e := range all {
		wg.Add(1)
		go func(e *warmModel) {
			defer wg.Done()
			<-e.ready
			if e.coal != nil {
				e.coal.stop()
			}
		}(e)
	}
	wg.Wait()
}

// size reports the current entry count.
func (c *modelCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
