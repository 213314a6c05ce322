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
// An mmap-activated entry's model reads its substrate straight out of
// the artifact mapping, so the mapping must outlive every solve on it.
// The rule is one lease per use: get hands out a leased entry, the
// handler releases it once it is done with the model, and the last
// release on an entry that has left the cache unmaps its artifact. The
// mapped blobs are therefore at most the cache capacity plus the
// retired entries that still have borrowers. Entries built from a live
// ingest engine's in-memory version, or from a raw graph, hold no
// artifact and map nothing; only pinned and artifact-only activations
// do.

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"tmark/internal/artifact"
	"tmark/internal/fault"
	"tmark/internal/tmark"
)

// modelKey identifies one warm model: the resolved model source plus
// the full hyperparameter set. name is the loaded-graph name usable for
// a (re)build — empty for a model reachable only through the artifact
// store; hash is the resolved artifact content hash — empty for a model
// served from a raw graph with no artifact. At least one is set.
// tmark.Config is a flat comparable struct, so the key works directly
// as a map key.
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

// buildResult is what the cache's build function hands back: the
// servable model, the content hash identifying the substrate it runs on
// (the blob's hash for an artifact activation, the canonical encoding's
// hash for a raw build), and — for activations — the backing artifact.
type buildResult struct {
	model *tmark.Model
	hash  string
	art   *artifact.Artifact
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
	// art is the backing artifact of an mmap-activated entry, nil for a
	// raw build. It closes when the last lease on the retired entry is
	// released: an evicted entry's model may still be mid-solve for a
	// /rank or coalesced borrower, and unmapping under it would fault.
	art *artifact.Artifact
	// leases counts the callers using model: every get takes one and
	// every caller releases it once done. retired is set when the entry
	// leaves the cache. Both are guarded by modelCache.mu.
	leases  int
	retired bool

	// The full multi-class solves backing /rank, each computed lazily at
	// most once per warm model: the reference solve (serving the exact
	// and accelerated tiers) and the linearized fast-tier solve. They run
	// under the server's drain context — NOT the coalescer's solveCtx —
	// because eviction retires the coalescer (which ends by cancelling
	// solveCtx) while a /rank borrower may still be mid-solve: an evicted
	// model must finish its borrowed work at full quality. Only the
	// server drain cancels rankCtx.
	rankCtx  context.Context
	fullOnce sync.Once
	full     *tmark.Result
	fastOnce sync.Once
	fastFull *tmark.Result
}

// fullResult lazily runs the full multi-class solve for /rank. The
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
// /rank?quality=fast: one linear solve per class.
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
	build    func(modelKey) (buildResult, error)
	newCoal  func(*tmark.Model) *coalescer
	met      *metrics
	rankCtx  context.Context // every entry's /rank solve context

	// artifactsOpen counts the artifacts activated by builds and not yet
	// closed: the tmarkd_artifacts_open gauge.
	artifactsOpen atomic.Int64
}

func newModelCache(rankCtx context.Context, capacity int, build func(modelKey) (buildResult, error), newCoal func(*tmark.Model) *coalescer, met *metrics) *modelCache {
	if capacity < 1 {
		capacity = 1
	}
	return &modelCache{
		rankCtx:  rankCtx,
		capacity: capacity,
		entries:  make(map[modelKey]*warmModel),
		order:    list.New(),
		build:    build,
		newCoal:  newCoal,
		met:      met,
	}
}

// get returns the ready warm model for key, building it on a miss, and
// leases it: the caller must release the entry once it is done with the
// model. The build runs outside the cache lock (models can be
// expensive), with duplicate requests for the same key waiting on the
// first builder. Failed builds are not cached: the placeholder is
// removed so a later request can retry.
func (c *modelCache) get(key modelKey) (*warmModel, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.order.MoveToFront(e.elem)
		e.leases++
		c.mu.Unlock()
		if c.met != nil {
			c.met.cacheHits.Inc()
		}
		<-e.ready
		if e.err != nil {
			c.release(e)
			return nil, e.err
		}
		return e, nil
	}
	e := &warmModel{key: key, ready: make(chan struct{}), rankCtx: c.rankCtx, leases: 1}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	var evicted, unleased []*warmModel
	for len(c.entries) > c.capacity {
		old := c.order.Back().Value.(*warmModel)
		evicted = append(evicted, old)
		if c.removeLocked(old) {
			unleased = append(unleased, old)
		}
	}
	c.mu.Unlock()
	c.closeArtifacts(unleased...)
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

	br, err := c.buildSafe(key)
	if err != nil {
		e.err = err
		close(e.ready)
		c.mu.Lock()
		if cur, ok := c.entries[key]; ok && cur == e {
			c.removeLocked(e)
		}
		c.mu.Unlock()
		c.release(e)
		return nil, err
	}
	e.model, e.hash, e.art = br.model, br.hash, br.art
	if e.art != nil {
		c.artifactsOpen.Add(1)
	}
	e.coal = c.newCoal(e.model)
	e.coal.onPanic = func() { c.quarantine(e) }
	close(e.ready)
	return e, nil
}

// release drops one lease on e. The last release on a retired entry
// closes its artifact: no solve can read the mapping any more, because
// every solve runs for a caller that still holds its lease.
func (c *modelCache) release(e *warmModel) {
	c.mu.Lock()
	e.leases--
	last := e.retired && e.leases == 0
	c.mu.Unlock()
	if last {
		c.closeArtifacts(e)
	}
}

// removeLocked takes e, which must be in the cache, out of it under
// c.mu and retires it. It reports whether no lease holds e, in which
// case the caller closes e's artifact once it has dropped the lock. An
// entry is removed at most once and only cached entries take new
// leases, so exactly one caller sees a retired entry's count at zero
// and closes the artifact: Artifact.Close is not safe to call
// concurrently.
func (c *modelCache) removeLocked(e *warmModel) bool {
	delete(c.entries, e.key)
	c.order.Remove(e.elem)
	e.retired = true
	return e.leases == 0
}

// closeArtifacts unmaps the artifacts of retired, unleased entries.
func (c *modelCache) closeArtifacts(es ...*warmModel) {
	for _, e := range es {
		if e.art != nil {
			e.art.Close()
			c.artifactsOpen.Add(-1)
		}
	}
}

// buildSafe runs the model build behind a panic barrier. A crashing
// build fails like an erroring one — the placeholder entry is removed
// so the next request retries the build — instead of tearing down the
// request goroutine with waiters still parked on the entry.
func (c *modelCache) buildSafe(key modelKey) (br buildResult, err error) {
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
	return c.build(key)
}

// quarantine drops a faulting entry from the cache so the next request
// for its key rebuilds the model from the immutable graph (waiters
// coalesce on the rebuild exactly like a cold miss). The entry's
// coalescer retires asynchronously once its queue is answered; its
// remaining jobs finish against the old model — at worst with another
// ErrModelFault, never a wrong answer.
func (c *modelCache) quarantine(e *warmModel) {
	c.mu.Lock()
	unleased := false
	if cur, ok := c.entries[e.key]; ok && cur == e {
		unleased = c.removeLocked(e)
	}
	c.mu.Unlock()
	if unleased {
		c.closeArtifacts(e)
	}
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

// invalidateName drops every entry that would rebuild name from its
// mutable source (key.hash == ""): after an ingest moves the live
// version, such entries serve pre-ingest state under a post-ingest
// name. Hash-keyed entries stay — they are pinned immutable versions,
// exactly what a mid-ingest reader is entitled to keep. Dropped
// coalescers retire asynchronously after answering their queues, like
// an eviction.
func (c *modelCache) invalidateName(name string) {
	c.mu.Lock()
	var dropped, unleased []*warmModel
	for k, e := range c.entries {
		if k.name == name && k.hash == "" {
			dropped = append(dropped, e)
			if c.removeLocked(e) {
				unleased = append(unleased, e)
			}
		}
	}
	c.mu.Unlock()
	c.closeArtifacts(unleased...)
	for _, e := range dropped {
		if c.met != nil {
			c.met.cacheEvictions.Inc()
		}
		go func(e *warmModel) {
			<-e.ready
			if e.coal != nil {
				e.coal.stop()
			}
		}(e)
	}
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
// coalescer's intake and blocks until each dispatcher has answered its
// queue and exited; entries still building are stopped once they are
// ready. Drain calls it after cancelling the server's drain context, so
// every answer is a partial result returned within one solver
// iteration. Retiring unmaps every artifact no request still leases, so
// a drained server keeps no mapping past its last borrower.
func (c *modelCache) stopAll() {
	c.mu.Lock()
	var all, unleased []*warmModel
	for _, e := range c.entries {
		all = append(all, e)
		if c.removeLocked(e) {
			unleased = append(unleased, e)
		}
	}
	c.mu.Unlock()
	c.closeArtifacts(unleased...)
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
