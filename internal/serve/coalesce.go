package serve

// The request coalescer. Concurrent /v1/classify queries against one warm
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
// unbounded backlog. One dispatcher goroutine per model forms batches
// and starts each on its own goroutine; a server-wide slot semaphore
// bounds how many batches solve at once across all warm models, so one
// model can have up to that many batches in flight. A column's bits do
// not depend on the batch it rides in, so overlapping batches need no
// coordination beyond the read-only model they share. A batch keeps
// filling while another batch of its model solves, and starts once it
// is full or no batch of its model is running: starting it narrower
// would only waste padded lanes, since the queue refills while the
// other batch solves.

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

// job is one enqueued query and its reply channel (buffered so a batch
// never blocks on delivery).
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

	// solveCtx is the base context of every batch solve, a child of the
	// server's drain context; cancelling either stops in-flight and
	// queued work within one solver iteration.
	solveCtx context.Context
	cancel   context.CancelFunc

	slots chan struct{} // server-wide solve semaphore; nil = unbounded

	// onPanic is invoked (once per panicking batch) when a batch solve
	// panics, after the panic is recovered; the cache wires it to
	// quarantine this coalescer's model. The field is assigned before
	// the warm model is published, so no batch observes a torn write.
	onPanic func()

	// running counts this model's batches that are solving; each batch
	// that ends puts a token in ended (capacity 1), which wakes a
	// dispatcher waiting on running — a batch filling while busy, or
	// the exit — to look at it again.
	running atomic.Int32
	ended   chan struct{}

	closed   atomic.Bool   // intake rejected once set
	drainCh  chan struct{} // signals the dispatcher to empty and exit
	stopOnce sync.Once
	done     chan struct{} // closed once the dispatcher has exited and every batch has answered

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
		slots:    slots,
		ended:    make(chan struct{}, 1),
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
// do returns only after the batch holding its job has answered it, or
// after done closed without an answer. It has deliberately no
// ctx.Done() case: a cancelled request still waits for its batch. Its
// column retires within one solver iteration and the partial result
// comes back through the normal path, so the wait is short, and no
// request counts as finished while its column still occupies a batch.
// done closes only once every batch has answered, so a job that is
// still in a running batch — or in a batch still filling — has its
// caller blocked here. Retiring the model's cache entry changes none of
// this: stop waits for done, and each batch holds the model it solves
// on, so an evicted entry finishes its accepted work at full quality.
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
		// The dispatcher exited while we waited. Either a batch answered
		// us on its way out (the reply is buffered) or our enqueue raced
		// past the drain sweep.
		select {
		case r := <-j.resp:
			return r.res, r.width, r.err
		default:
			return tmark.ColumnResult{}, 0, ErrDraining
		}
	}
}

// dispatch is the coalescer's single consumer: block for one job, form
// a batch around it and start the batch, repeat. On stop it empties the
// queue, waits for every batch to answer and exits; under a server
// drain those solves run under the already-cancelled solveCtx, so each
// returns within one iteration.
func (c *coalescer) dispatch() {
	defer func() {
		for c.running.Load() > 0 {
			<-c.ended
		}
		close(c.done)
	}()
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

// collect forms one batch around first and starts it on its own
// goroutine. While another batch of this model is solving, the new
// batch keeps receiving from the queue until it is full or no batch of
// its model runs any more, so it never starts later than it would
// behind a single batch, and never narrower than the queue allows.
// Then it acquires a solve slot and folds in, without waiting, whatever
// queued meanwhile (queries that arrived while waiting for the slot
// coalesce too — the busier the server, the wider the batches). The
// jobs of a filling batch have left the queue, so a model admits at
// most its queue depth plus one filling batch.
func (c *coalescer) collect(first *job) {
	batch := make([]*job, 1, c.maxBatch)
	batch[0] = first
	for len(batch) < c.maxBatch && c.running.Load() > 0 {
		select {
		case j := <-c.queue:
			batch = append(batch, j)
		case <-c.ended:
		}
	}
	if c.slots != nil {
		c.slots <- struct{}{}
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
	c.running.Add(1)
	if c.met != nil {
		c.met.inflight.Add(1)
	}
	go func() {
		c.run(batch)
		if c.slots != nil {
			<-c.slots
		}
		if c.met != nil {
			c.met.inflight.Add(-1)
		}
		c.running.Add(-1)
		select {
		case c.ended <- struct{}{}:
		default:
		}
	}()
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
// must take down neither the batch (which still owes each of its jobs
// an answer) nor the process. A recovered panic quarantines the
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

// stop closes intake and waits until every batch in flight and
// everything still queued has been answered. Retiring a model
// (eviction, quarantine) leaves the solve context live,
// so the accepted work finishes at full quality; the SIGTERM drain
// cancels the parent context before it stops anything, so those solves
// return within one solver iteration with partial results.
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
