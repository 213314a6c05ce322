package obs

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Kernel identifies one of the solver's per-iteration compute kernels.
type Kernel uint8

const (
	// KernelO is the node-transition contraction x' = O ×̄₁ x ×̄₃ z. A
	// fast-tier sweep counts here too: its product P·x contracts O
	// collapsed at a frozen z̄.
	KernelO Kernel = iota
	// KernelR is the relation-transition contraction z' = R ×̄₁ x ×̄₂ x.
	KernelR
	// KernelW is the feature-channel matrix-vector product W·x.
	KernelW
	// KernelReseed is the ICA pseudo-seed update of the restart vectors.
	KernelReseed
	// NumKernels is the kernel count; valid kernels are [0, NumKernels).
	NumKernels
)

var kernelNames = [NumKernels]string{"o_contract", "r_contract", "w_matvec", "ica_reseed"}

// String returns the kernel's snake_case metric name.
func (k Kernel) String() string {
	if k < NumKernels {
		return kernelNames[k]
	}
	return fmt.Sprintf("kernel_%d", uint8(k))
}

// Kernels lists the valid kernels in order.
func Kernels() []Kernel {
	ks := make([]Kernel, NumKernels)
	for i := range ks {
		ks[i] = Kernel(i)
	}
	return ks
}

// kernelAgg accumulates one kernel's run-local telemetry, recorded by
// the driver goroutine once per kernel call: the duration, the call, and
// the items streamed across the call's active columns. Everything is
// atomic so concurrent runs sharing nothing but the clock stay
// race-free.
type kernelAgg struct {
	ns, calls, items, cols Counter
}

// Collector gathers the telemetry of one solver run: per-kernel wall time
// and item counts, worker-pool activity, and the allocation delta. A nil
// *Collector is the disabled collector — every method nil-checks and
// returns immediately, so instrumented code calls it unconditionally.
//
// A Collector belongs to one run; build a fresh one per run and Finish it
// into a RunStats when the run completes.
type Collector struct {
	start   time.Time
	kernels [NumKernels]kernelAgg
	pool    *PoolStats

	mallocs0, bytes0 uint64
}

// NewCollector starts a collector: records the start time and the
// process allocation baseline.
func NewCollector() *Collector {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &Collector{start: time.Now(), mallocs0: ms.Mallocs, bytes0: ms.TotalAlloc}
}

// Enabled reports whether the collector actually records (non-nil).
func (c *Collector) Enabled() bool { return c != nil }

// Clock returns the current time, or the zero time on a nil collector so
// the matching StopKernel is a no-op without a second branch at the call
// site.
func (c *Collector) Clock() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// StopKernel records one call of kernel k that started at start and
// streamed n items across cols columns — one pass over the items serves
// cols right-hand sides. A nil collector or a zero start (from a nil
// Clock) is a no-op.
func (c *Collector) StopKernel(k Kernel, start time.Time, n, cols int) {
	if c == nil || start.IsZero() || k >= NumKernels {
		return
	}
	agg := &c.kernels[k]
	agg.ns.Add(int64(time.Since(start)))
	agg.calls.Inc()
	agg.items.Add(int64(n))
	agg.cols.Add(int64(cols))
}

// AttachPool creates, stores and returns PoolStats for a pool of the
// given worker count. A nil collector returns nil, which par accepts as
// "observation off".
func (c *Collector) AttachPool(workers int) *PoolStats {
	if c == nil {
		return nil
	}
	c.pool = NewPoolStats(workers)
	return c.pool
}

// Finish closes the collection window and writes the collector's view
// (wall time, kernel split, pool activity, allocation delta) into s. The
// caller fills the solver-level fields (Workers, Iterations, Classes).
// No-op when the collector or s is nil.
func (c *Collector) Finish(s *RunStats) {
	if c == nil || s == nil {
		return
	}
	s.Wall = time.Since(c.start)
	s.Kernels = s.Kernels[:0]
	for k := Kernel(0); k < NumKernels; k++ {
		agg := &c.kernels[k]
		s.Kernels = append(s.Kernels, KernelStats{
			Kernel: k,
			Name:   k.String(),
			Time:   time.Duration(agg.ns.Load()),
			Calls:  agg.calls.Load(),
			Items:  agg.items.Load(),
			Cols:   agg.cols.Load(),
		})
	}
	s.PoolDispatches = c.pool.Dispatches()
	s.PoolShards = c.pool.ShardsRun()
	s.PoolBusy = c.pool.Busy()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.Allocs = ms.Mallocs - c.mallocs0
	s.AllocBytes = ms.TotalAlloc - c.bytes0
}

// KernelStats is the per-kernel slice of a run's wall time.
type KernelStats struct {
	Kernel Kernel
	// Name is the kernel's metric name (o_contract, r_contract, w_matvec,
	// ica_reseed).
	Name string
	// Time is the wall time spent inside the kernel, measured around each
	// call from the driver goroutine.
	Time time.Duration
	// Calls is the number of kernel invocations.
	Calls int64
	// Items is the number of stored entries (tensor nonzeros, CSR entries,
	// dense cells, …) the kernel processed across all calls.
	Items int64
	// Cols is the number of right-hand-side columns the kernel applied
	// across all calls: one per call for the single-vector kernels, the
	// active class count per call for the batched kernels. Items measures
	// memory traffic; Items scaled by Cols/Calls approximates arithmetic.
	Cols int64
}

// ClassStats summarises one class's iteration history within a run.
type ClassStats struct {
	Class      int
	Iterations int
	Converged  bool
	// FinalResidual is the last ρ_t observed (0 when no iteration ran).
	FinalResidual float64
	// Residuals is the per-iteration ρ_t trace.
	Residuals []float64
}

// RunStats is the telemetry record of one solver run, filled in place by
// the solver when the caller passes it via WithStats. A RunStats may be
// reused across runs; every slice is truncated and rewritten.
type RunStats struct {
	// Wall is the end-to-end run duration.
	Wall time.Duration
	// Workers is the resolved worker count the run used.
	Workers int
	// Iterations is the total iteration count summed over classes.
	Iterations int
	// Classes holds the per-class iteration counts and residual traces.
	Classes []ClassStats
	// Kernels splits the wall time across the compute kernels, in Kernel
	// order.
	Kernels []KernelStats
	// PoolDispatches, PoolShards and PoolBusy describe worker-pool
	// activity: batch submissions, shard executions, and summed per-worker
	// busy time (which exceeds wall time when workers overlap).
	PoolDispatches int64
	PoolShards     int64
	PoolBusy       time.Duration
	// Allocs and AllocBytes are the process-wide heap allocation deltas
	// over the run window — an approximation when other goroutines
	// allocate concurrently.
	Allocs     uint64
	AllocBytes uint64
	// AccelProposed, AccelAccepted and AccelRejected count the
	// extrapolated power method's candidate iterates over the run: built,
	// passed the monotone-residual vet, and discarded (all zero when the
	// run did not use WithAcceleration).
	AccelProposed int64
	AccelAccepted int64
	AccelRejected int64
}

// KernelTime returns the recorded time of kernel k (0 when absent).
func (s *RunStats) KernelTime(k Kernel) time.Duration {
	if s == nil {
		return 0
	}
	for i := range s.Kernels {
		if s.Kernels[i].Kernel == k {
			return s.Kernels[i].Time
		}
	}
	return 0
}

// String renders the per-kernel and per-class breakdown as a small text
// report (what `tmark -stats` prints).
func (s *RunStats) String() string {
	if s == nil {
		return "no stats collected"
	}
	var b strings.Builder
	converged := 0
	for _, cs := range s.Classes {
		if cs.Converged {
			converged++
		}
	}
	fmt.Fprintf(&b, "run: wall %v, %d workers, %d iterations over %d classes (%d converged)\n",
		s.Wall.Round(time.Microsecond), s.Workers, s.Iterations, len(s.Classes), converged)
	fmt.Fprintf(&b, "%-12s %12s %7s %8s %14s %8s\n", "kernel", "time", "%", "calls", "items", "cols")
	kernels := append([]KernelStats(nil), s.Kernels...)
	sort.SliceStable(kernels, func(i, j int) bool { return kernels[i].Time > kernels[j].Time })
	for _, ks := range kernels {
		pct := 0.0
		if s.Wall > 0 {
			pct = 100 * float64(ks.Time) / float64(s.Wall)
		}
		fmt.Fprintf(&b, "%-12s %12v %6.1f%% %8d %14d %8d\n",
			ks.Name, ks.Time.Round(time.Microsecond), pct, ks.Calls, ks.Items, ks.Cols)
	}
	if s.PoolDispatches > 0 {
		util := 0.0
		if s.Wall > 0 {
			util = float64(s.PoolBusy) / float64(s.Wall)
		}
		fmt.Fprintf(&b, "pool: %d dispatches, %d shards, busy %v (parallelism %.2fx)\n",
			s.PoolDispatches, s.PoolShards, s.PoolBusy.Round(time.Microsecond), util)
	}
	fmt.Fprintf(&b, "alloc: %d objects, %d bytes\n", s.Allocs, s.AllocBytes)
	if s.AccelProposed > 0 {
		fmt.Fprintf(&b, "accel: %d proposed, %d accepted, %d rejected\n",
			s.AccelProposed, s.AccelAccepted, s.AccelRejected)
	}
	for _, cs := range s.Classes {
		fmt.Fprintf(&b, "class %d: %d iterations, converged=%v, final rho %.3g\n",
			cs.Class, cs.Iterations, cs.Converged, cs.FinalResidual)
	}
	return b.String()
}
