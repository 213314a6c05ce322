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

import (
	"container/list"
	"context"
	"fmt"
	"path/filepath"
	"sync"

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

// display names the key for humans: eviction logs, checkpoint files.
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
	// raw build. It is deliberately never Closed while the process
	// lives: an evicted entry's model may still be mid-solve for a
	// /rank borrower, and unmapping under it would fault. The cost is
	// the mapping's address space; its clean pages stay reclaimable.
	art *artifact.Artifact

	// ck holds the checkpoint/resume options of the /rank full solve
	// when the server has a checkpoint directory; empty otherwise.
	ck []tmark.RunOption

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
// class structure, where the cross-class reseed is meaningful). With a
// checkpoint directory configured the solve snapshots periodically and
// resumes from the previous process's last snapshot; a server drain
// cancels rankCtx, which flushes a final checkpoint before the solve
// returns its partial result.
func (e *warmModel) fullResult() *tmark.Result {
	e.fullOnce.Do(func() {
		e.full = e.model.RunContext(e.rankCtx, e.ck...)
	})
	return e.full
}

// fastResult lazily runs the linearized approximate solve for
// /rank?quality=fast. It never checkpoints or resumes — the fast tier is
// one linear solve per class, cheap enough to redo from scratch, and the
// iterative checkpoint format cannot describe it anyway.
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

	// ckDir, when set, gives every warm model a per-key checkpoint file
	// for its /rank full solve, written every ckEvery iterations.
	ckDir   string
	ckEvery int
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

// get returns the ready warm model for key, building it on a miss. The
// build runs outside the cache lock (models can be expensive), with
// duplicate requests for the same key waiting on the first builder.
// Failed builds are not cached: the placeholder is removed so a later
// request can retry.
func (c *modelCache) get(key modelKey) (*warmModel, error) {
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
		back := c.order.Back()
		old := back.Value.(*warmModel)
		c.order.Remove(back)
		delete(c.entries, old.key)
		evicted = append(evicted, old)
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

	br, err := c.buildSafe(key)
	if err != nil {
		e.err = err
		close(e.ready)
		c.mu.Lock()
		if cur, ok := c.entries[key]; ok && cur == e {
			delete(c.entries, key)
			c.order.Remove(e.elem)
		}
		c.mu.Unlock()
		return nil, err
	}
	e.model, e.hash, e.art = br.model, br.hash, br.art
	if c.ckDir != "" {
		e.ck = c.checkpointOptions(key, e.model)
	}
	e.coal = c.newCoal(e.model)
	e.coal.onPanic = func() { c.quarantine(e) }
	close(e.ready)
	return e, nil
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
	if cur, ok := c.entries[e.key]; ok && cur == e {
		delete(c.entries, e.key)
		c.order.Remove(e.elem)
	}
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

// invalidateName drops every entry that would rebuild name from its
// mutable source (key.hash == ""): after an ingest moves the live
// version, such entries serve pre-ingest state under a post-ingest
// name. Hash-keyed entries stay — they are pinned immutable versions,
// exactly what a mid-ingest reader is entitled to keep. Dropped
// coalescers retire asynchronously after answering their queues, like
// an eviction.
func (c *modelCache) invalidateName(name string) {
	c.mu.Lock()
	var dropped []*warmModel
	for k, e := range c.entries {
		if k.name == name && k.hash == "" {
			delete(c.entries, k)
			c.order.Remove(e.elem)
			dropped = append(dropped, e)
		}
	}
	c.mu.Unlock()
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

// checkpointOptions wires one warm model's /rank solve to its
// per-key checkpoint file: periodic snapshots while it runs (the drain
// path flushes a final one), resumed on the next process start when a
// matching snapshot is present. A stale or mismatching file is simply
// ignored — the solve starts cold and overwrites it.
func (c *modelCache) checkpointOptions(key modelKey, m *tmark.Model) []tmark.RunOption {
	name := fmt.Sprintf("%s-%016x.ckpt", safeName(key.display()), m.ConfigHash())
	opts := []tmark.RunOption{tmark.WithCheckpoint(&tmark.DirSink{Dir: c.ckDir, Name: name}, c.ckEvery)}
	if cp, err := tmark.LoadCheckpointFile(filepath.Join(c.ckDir, name)); err == nil && m.ValidateCheckpoint(cp) == nil {
		opts = append(opts, tmark.ResumeFrom(cp))
	}
	return opts
}

// safeName maps a dataset name onto a filename-safe form.
func safeName(s string) string {
	out := []byte(s)
	for i, b := range out {
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9',
			b == '.', b == '-', b == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
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

// stopAll closes every cached coalescer's intake and blocks until each
// dispatcher has answered its queue and exited; entries still building
// are stopped once they are ready. Drain calls it after cancelling the
// server's drain context, so every answer is a partial result returned
// within one solver iteration.
func (c *modelCache) stopAll() {
	var wg sync.WaitGroup
	for _, e := range c.snapshot() {
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
