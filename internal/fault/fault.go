// Package fault is a deterministic fault-injection registry for chaos
// testing. Production code marks interesting places with named points —
// a tensor kernel finishing a blocked contraction, a model build, a
// coalescer about to solve a batch — and chaos tests attach hooks to
// those points to corrupt buffers, sleep, fail or panic on demand.
//
// The registry is designed to vanish in production. Nothing is ever
// registered outside tests, and the one question hot code asks —
// Enabled() — is a single atomic load. The calling convention keeps the
// disabled path allocation-free: guard every Fire with Enabled, so the
// variadic argument slice is only built when a test is actually
// listening:
//
//	if fault.Enabled() {
//		fault.Fire(fault.TensorNodeBatch, dst, b, vector)
//	}
//
// Hooks run synchronously on the goroutine that hit the point, so a
// test's injection is deterministic with respect to the code path that
// fired it: a hook that writes NaN into the kernel's destination slice
// corrupts exactly the iteration it fired on. The registry itself is
// safe for concurrent use (kernels fire from worker pools); hooks that
// mutate shared test state must do their own locking.
package fault

import (
	"sync"
	"sync/atomic"
)

// Point names one injection site. Points are declared next to the code
// that fires them; the canonical set lives here so tests and production
// code agree on spelling.
type Point string

// The registry's named injection points.
const (
	// TensorNodeBatch fires after the blocked node contraction writes
	// dst; args are (dst []float64, b int, vector bool), where vector
	// reports whether the AVX2 bodies ran (false on the scalar ones).
	TensorNodeBatch Point = "tensor/node-batch"
	// TensorRelationBatch fires after the blocked relation contraction
	// writes dst; args are as for TensorNodeBatch.
	TensorRelationBatch Point = "tensor/relation-batch"
	// SparseMulBatch fires after a blocked CSR product (the feature
	// channel W, or the fast tier's collapsed P) writes dst; args are as
	// for TensorNodeBatch.
	SparseMulBatch Point = "sparse/mul-batch"
	// SolverLayout fires after the lockstep engine or the fast block lays
	// out its blocks: once at the start, and after every retirement that
	// re-strides them. Args are (active int, stride int, x []float64,
	// y []float64): the active column count, the lane stride, the
	// n×stride node block, and the engine's m×stride relation block or
	// the fast block's n×stride restart block.
	SolverLayout Point = "tmark/layout"
	// ServeModelBuild is checked (Check) before a warm-model build; a
	// registered error fails the build, and a hook that panics simulates
	// a crashing build.
	ServeModelBuild Point = "serve/model-build"
	// ServeBatchSolve fires before a coalesced lockstep batch solves;
	// args are (width int). A sleeping hook simulates a slow worker, a
	// panicking hook a crashing solve.
	ServeBatchSolve Point = "serve/batch-solve"
	// ServeCacheEvict fires when the model cache evicts an entry.
	ServeCacheEvict Point = "serve/cache-evict"
	// AccelPropose fires when the extrapolated power method builds a
	// candidate iterate, before the simplex projection and the health
	// vetting; args are (cand []float64, n int, m int) — the concatenated
	// (x, z) candidate. A hook that writes NaN into cand exercises the
	// propose-time finite check; a hook that writes a finite but wildly
	// wrong distribution exercises the in-loop non-monotone-residual
	// rejection and its fallback to plain iteration.
	AccelPropose Point = "accel/propose"
	// ArtifactOpen is checked (Check) before an artifact blob is read;
	// a registered error simulates an unreadable blob and forces the
	// serve cache onto the rebuild path.
	ArtifactOpen Point = "artifact/open"
	// ArtifactDecode fires with the raw artifact bytes (data []byte)
	// after the blob is read but before DecodeBytes parses it. A hook
	// that flips bytes simulates on-disk corruption; the crc64 trailer
	// must then reject the artifact.
	ArtifactDecode Point = "artifact/decode"
	// ArtifactActivate is checked (Check) after a blob decodes but
	// before the model is assembled from it; a registered error
	// simulates an artifact whose substrate fails activation.
	ArtifactActivate Point = "artifact/activate"
	// StreamApply is checked (Check) before a delta batch is composed
	// and fires (Fire) after the new substrate is assembled but before
	// anything is sealed or published; args are (seq int, changes int).
	// A registered error rejects the batch; a panicking hook simulates
	// an ingest crashing mid-apply — the engine must quarantine without
	// publishing any partial state.
	StreamApply Point = "stream/apply"
	// StreamSeal fires between the registry Put of a new version's blob
	// and the Tag that moves the floating name to it; args are
	// (hash string). A panicking hook simulates a crash in the seal
	// window: the blob may exist untagged, but the name must still
	// resolve to the previous version.
	StreamSeal Point = "stream/seal"
	// StreamWarm is checked (Check) before a warm re-solve seeded from
	// the previous stationary distributions; a registered error forces
	// the cold path, and a panicking hook simulates a crashing warm
	// restart after the version was sealed.
	StreamWarm Point = "stream/warm"
	// WALAppend is checked (Check) before a delta batch is appended to
	// the write-ahead log — a registered error simulates a failing log
	// disk (the batch is rejected cleanly) — and fires (Fire) right
	// after the fsync'd append with args (seq uint64): a panicking hook
	// simulates a crash in the logged-but-unapplied window, the exact
	// state replay must heal.
	WALAppend Point = "wal/append"
	// StreamRecover is checked (Check) when a quarantined engine
	// attempts its in-process WAL recovery — a registered error keeps
	// the quarantine sticky — and fires (Fire) after a successful
	// recovery with args (seq int, replayed int).
	StreamRecover Point = "stream/recover"
)

// registry holds the active hooks. active mirrors the total hook count
// so Enabled stays one atomic load with no lock.
var (
	mu       sync.RWMutex
	hooks    = map[Point][]func(args ...any){}
	errHooks = map[Point][]func() error{}
	active   atomic.Int64
)

// Enabled reports whether any hook is registered anywhere. It is the
// hot-path gate: callers must check it before building Fire arguments,
// so disabled points cost one atomic load and a predictable branch.
func Enabled() bool { return active.Load() != 0 }

// Inject registers a hook on a point and returns its removal function.
// Hooks on the same point run in registration order.
func Inject(p Point, h func(args ...any)) (remove func()) {
	mu.Lock()
	hooks[p] = append(hooks[p], h)
	idx := len(hooks[p]) - 1
	mu.Unlock()
	active.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			mu.Lock()
			if hs := hooks[p]; idx < len(hs) && hs[idx] != nil {
				hs[idx] = nil
			}
			mu.Unlock()
			active.Add(-1)
		})
	}
}

// InjectErr registers an error hook on a point, consulted by Check.
func InjectErr(p Point, h func() error) (remove func()) {
	mu.Lock()
	errHooks[p] = append(errHooks[p], h)
	idx := len(errHooks[p]) - 1
	mu.Unlock()
	active.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			mu.Lock()
			if hs := errHooks[p]; idx < len(hs) && hs[idx] != nil {
				hs[idx] = nil
			}
			mu.Unlock()
			active.Add(-1)
		})
	}
}

// Fire runs the hooks of a point with the given arguments. Callers on
// hot paths must gate on Enabled first so the args slice is never built
// when nothing is listening. Panics raised by hooks propagate — that is
// the mechanism for simulating a crashing component.
func Fire(p Point, args ...any) {
	if active.Load() == 0 {
		return
	}
	mu.RLock()
	hs := hooks[p]
	mu.RUnlock()
	for _, h := range hs {
		if h != nil {
			h(args...)
		}
	}
}

// Check returns the first non-nil error produced by the point's error
// hooks, or nil. Disabled points cost one atomic load.
func Check(p Point) error {
	if active.Load() == 0 {
		return nil
	}
	mu.RLock()
	hs := errHooks[p]
	mu.RUnlock()
	for _, h := range hs {
		if h == nil {
			continue
		}
		if err := h(); err != nil {
			return err
		}
	}
	return nil
}

// Reset removes every registered hook. Tests call it (usually via
// t.Cleanup) so one test's injections never leak into the next.
func Reset() {
	mu.Lock()
	n := 0
	for p, hs := range hooks {
		for _, h := range hs {
			if h != nil {
				n++
			}
		}
		delete(hooks, p)
	}
	for p, hs := range errHooks {
		for _, h := range hs {
			if h != nil {
				n++
			}
		}
		delete(errHooks, p)
	}
	mu.Unlock()
	active.Add(int64(-n))
}

// Nth wraps a hook so it runs only on its n-th firing (1-based) and is
// inert afterwards — the building block of "corrupt exactly iteration
// k" chaos tests. The counter is atomic, so Nth hooks are safe on
// points fired from worker pools.
func Nth(n int64, h func(args ...any)) func(args ...any) {
	var count atomic.Int64
	return func(args ...any) {
		if count.Add(1) == n {
			h(args...)
		}
	}
}

// Once is Nth(1, h): the hook fires on the first hit only.
func Once(h func(args ...any)) func(args ...any) { return Nth(1, h) }
