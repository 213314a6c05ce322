package serve

// The request coalescer. Concurrent /classify queries against one warm
// model are independent single-class solves over the same O/R/W, so
// instead of q independent runs each re-streaming every tensor entry,
// the coalescer folds waiting queries into one SolveColumns lockstep
// batch: an n×q blocked solve that streams the model once per iteration
// for all q columns. Each request's HTTP context rides in as the
// column's context, so a cancelled request retires its column mid-batch
// while the rest keep iterating — cancellation costs at most one solver
// iteration and never restarts the batch.
//
// Admission is a bounded queue with fail-fast overflow: a full queue
// rejects immediately (the caller maps it to 503) instead of building an
// unbounded backlog. One dispatcher goroutine takes a blocking first
// job, drains whatever else is already queued (up to the batch cap), and
// solves; a server-wide slot semaphore bounds how many batches solve
// concurrently across all warm models.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tmark/internal/fault"
	"tmark/internal/tmark"
)

// ErrOverloaded reports a full admission queue; clients should retry
// with backoff.
var ErrOverloaded = errors.New("serve: admission queue full")

// ErrDraining reports a coalescer that has stopped accepting work.
var ErrDraining = errors.New("serve: draining")

// ErrModelFault reports a solve or build that panicked. The faulting
// model is quarantined — dropped from the cache so the next request
// rebuilds it from the immutable graph — and the requests that hit the
// fault are answered with this error (a 503: the rebuild usually
// clears a transient corruption, so clients should retry).
var ErrModelFault = errors.New("serve: model quarantined after fault")

// job is one enqueued query and its reply channel (buffered so the
// dispatcher never blocks on delivery).
type job struct {
	query tmark.ColumnQuery
	resp  chan jobResult
}

type jobResult struct {
	res   tmark.ColumnResult
	width int // lockstep batch width the query rode in
	err   error
}

// coalescer batches queries against one warm model.
type coalescer struct {
	model    *tmark.Model
	maxBatch int
	queue    chan *job
	batch    []*job // dispatcher-owned collection scratch

	// solveCtx is the base context of every batch solve, a child of the
	// server's drain context; cancelling either stops in-flight and
	// queued work within one solver iteration.
	solveCtx context.Context
	cancel   context.CancelFunc

	slots chan struct{} // server-wide solve semaphore; nil = unbounded

	// onPanic is invoked (at most per batch) when a batch solve panics,
	// after the panic is recovered; the cache wires it to quarantine
	// this coalescer's model. The field is assigned before the warm
	// model is published, so the dispatcher never observes a torn write.
	onPanic func()

	closed   atomic.Bool   // intake rejected once set
	drainCh  chan struct{} // signals the dispatcher to empty and exit
	stopOnce sync.Once
	done     chan struct{} // closed when the dispatcher has exited

	met *metrics
}

func newCoalescer(parent context.Context, model *tmark.Model, maxBatch, queueDepth int, slots chan struct{}, met *metrics) *coalescer {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	c := &coalescer{
		model:    model,
		maxBatch: maxBatch,
		queue:    make(chan *job, queueDepth),
		batch:    make([]*job, 0, maxBatch),
		slots:    slots,
		drainCh:  make(chan struct{}),
		done:     make(chan struct{}),
		met:      met,
	}
	c.solveCtx, c.cancel = context.WithCancel(parent)
	go c.dispatch()
	return c
}

// do enqueues one query and waits for its result. ctx is the request's
// own context: it cancels only this query's column, and the partial
// result still comes back through the normal path. do fails fast with
// ErrOverloaded on a full queue and ErrDraining once the coalescer is
// stopping.
//
// The coalescer takes no lease on its model's cache entry; the callers'
// leases cover every batch. do returns only after the batch holding its
// job has answered it, or after the dispatcher exited without solving
// it, and it has deliberately no ctx.Done() case: a cancelled request
// still waits for its batch. So every job in a running batch belongs to
// a caller blocked here, holding the lease that keeps the model's
// artifact mapped until the batch ends.
func (c *coalescer) do(ctx context.Context, q tmark.ColumnQuery) (tmark.ColumnResult, int, error) {
	if c.closed.Load() {
		return tmark.ColumnResult{}, 0, ErrDraining
	}
	q.Ctx = ctx
	j := &job{query: q, resp: make(chan jobResult, 1)}
	select {
	case c.queue <- j:
	default:
		return tmark.ColumnResult{}, 0, ErrOverloaded
	}
	select {
	case r := <-j.resp:
		return r.res, r.width, r.err
	case <-c.done:
		// The dispatcher exited while we waited. Either it answered us on
		// its way out (the reply is buffered) or our enqueue raced past
		// the drain sweep.
		select {
		case r := <-j.resp:
			return r.res, r.width, r.err
		default:
			return tmark.ColumnResult{}, 0, ErrDraining
		}
	}
}

// dispatch is the coalescer's single consumer: block for one job, fold
// in whatever else is queued, solve, repeat. On stop it empties the
// queue and exits; under a server drain those solves run under the
// already-cancelled solveCtx, so each returns within one iteration.
func (c *coalescer) dispatch() {
	defer close(c.done)
	for {
		select {
		case j := <-c.queue:
			c.collect(j)
		case <-c.drainCh:
			for {
				select {
				case j := <-c.queue:
					c.collect(j)
				default:
					return
				}
			}
		}
	}
}

// collect acquires a solve slot, folds everything queued behind first
// into one batch (queries that arrived while waiting for the slot
// coalesce too — the busier the server, the wider the batches), and
// solves it.
func (c *coalescer) collect(first *job) {
	batch := append(c.batch[:0], first)
	if c.slots != nil {
		c.slots <- struct{}{}
		defer func() { <-c.slots }()
	}
fill:
	for len(batch) < c.maxBatch {
		select {
		case j := <-c.queue:
			batch = append(batch, j)
		default:
			break fill
		}
	}
	c.run(batch)
}

// run executes one lockstep batch and answers every job. SolveColumns
// only fails on query validation, and the server validates before
// enqueueing, so err is defensively forwarded but not expected — except
// for ErrModelFault, which solve synthesises from a recovered panic.
func (c *coalescer) run(batch []*job) {
	queries := make([]tmark.ColumnQuery, len(batch))
	for i, j := range batch {
		queries[i] = j.query
	}
	start := time.Now()
	out, err := c.solve(queries)
	if c.met != nil {
		c.met.observeBatch(len(batch), time.Since(start))
	}
	for i, j := range batch {
		r := jobResult{width: len(batch), err: err}
		if err == nil {
			r.res = out[i]
		}
		j.resp <- r
	}
}

// solve runs the lockstep solve with a panic barrier: a crashing solver
// must take down neither the dispatcher (which still owes every queued
// job an answer) nor the process. A recovered panic quarantines the
// model via onPanic and surfaces as ErrModelFault on every job of the
// batch.
func (c *coalescer) solve(queries []tmark.ColumnQuery) (out []tmark.ColumnResult, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			out, err = nil, fmt.Errorf("%w: batch solve panicked: %v", ErrModelFault, rec)
			if c.met != nil {
				c.met.panics.Inc()
			}
			if c.onPanic != nil {
				c.onPanic()
			}
		}
	}()
	if fault.Enabled() {
		fault.Fire(fault.ServeBatchSolve, len(queries))
	}
	return c.model.SolveColumns(c.solveCtx, queries)
}

// stop closes intake and waits for the dispatcher to answer everything
// still queued. Retiring a model (eviction, quarantine, invalidation)
// leaves the solve context live, so the accepted work finishes at full
// quality; the SIGTERM drain cancels the parent context before it
// stops anything, so those solves return within one solver iteration
// with partial results.
func (c *coalescer) stop() {
	c.stopOnce.Do(func() {
		c.closed.Store(true)
		close(c.drainCh)
	})
	<-c.done
	c.cancel() // release the context once everything is done
}

// depth reports the current admission-queue length (a metrics gauge).
func (c *coalescer) depth() int { return len(c.queue) }
