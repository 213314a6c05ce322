// Package obs is the observability layer of the solver: low-overhead
// counters and timers for the hot loops, a per-run telemetry record
// (RunStats, filled by a Collector), and a process-wide metrics Registry
// with an expvar-style snapshot and Prometheus text exposition.
//
// The package has two design rules. First, zero dependencies: only the
// standard library, so every compute package can import it freely.
// Second, disabled must cost nothing measurable: every instrument is
// usable through a nil pointer — a nil *Collector, *PoolStats, *Counter
// or *Timer turns every method into a nil-checked no-op — so
// the hot paths thread telemetry unconditionally and pay a branch, not
// an atomic, when observation is off.
//
// Contention is handled by sharding: PoolStats, updated concurrently by
// pool workers, keeps one cache-line-padded slot per worker and sums on
// read, so the per-shard add never bounces a cache line between cores.
package obs

import (
	"sync/atomic"
	"time"
)

// Counter is a monotonic atomic counter. The zero value is ready to use;
// a nil *Counter is a valid disabled counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Calls on a nil counter are no-ops.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value; 0 on a nil counter.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Timer accumulates observed durations and their count. The zero value is
// ready to use; a nil *Timer is a valid disabled timer.
type Timer struct {
	ns    atomic.Int64
	calls atomic.Int64
}

// Observe records one duration. Calls on a nil timer are no-ops.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.ns.Add(int64(d))
	t.calls.Add(1)
}

// ObserveSince records the duration elapsed since start. A zero start (as
// returned by a nil Collector's Clock) is ignored.
func (t *Timer) ObserveSince(start time.Time) {
	if t == nil || start.IsZero() {
		return
	}
	t.Observe(time.Since(start))
}

// Total returns the accumulated duration; 0 on a nil timer.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}

// Count returns the number of observations; 0 on a nil timer.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.calls.Load()
}

// PoolStats observes a worker pool: dispatches (batch submissions), shard
// executions, and per-worker busy time. The per-worker series live in
// one slot per worker so concurrent workers never contend on one cache
// line. A nil *PoolStats disables observation.
type PoolStats struct {
	dispatches Counter
	slots      []poolSlot
}

// poolSlot is one worker's series, padded to a cache line so adjacent
// slots never share one (64-byte lines on every target we build for).
type poolSlot struct {
	shards atomic.Int64
	busyNS atomic.Int64
	_      [48]byte
}

// NewPoolStats returns stats sized for the given worker count.
func NewPoolStats(workers int) *PoolStats {
	if workers < 1 {
		workers = 1
	}
	return &PoolStats{slots: make([]poolSlot, workers)}
}

// Dispatch records one batch submission. No-op on a nil receiver.
func (s *PoolStats) Dispatch() {
	if s == nil {
		return
	}
	s.dispatches.Inc()
}

// ObserveShard records one shard executed by the given worker for d.
// Worker indices at or past the slot count wrap around. No-op on a nil
// receiver.
func (s *PoolStats) ObserveShard(worker int, d time.Duration) {
	if s == nil {
		return
	}
	sl := &s.slots[worker%len(s.slots)]
	sl.shards.Add(1)
	sl.busyNS.Add(int64(d))
}

// Dispatches returns the batch submissions observed; 0 on nil.
func (s *PoolStats) Dispatches() int64 {
	if s == nil {
		return 0
	}
	return s.dispatches.Load()
}

// ShardsRun returns the shard executions observed; 0 on nil.
func (s *PoolStats) ShardsRun() int64 {
	if s == nil {
		return 0
	}
	var sum int64
	for i := range s.slots {
		sum += s.slots[i].shards.Load()
	}
	return sum
}

// Busy returns the summed worker busy time; 0 on nil. Busy time counts
// every worker in parallel, so it can exceed wall time — the ratio is the
// effective parallelism.
func (s *PoolStats) Busy() time.Duration {
	if s == nil {
		return 0
	}
	var sum int64
	for i := range s.slots {
		sum += s.slots[i].busyNS.Load()
	}
	return time.Duration(sum)
}
