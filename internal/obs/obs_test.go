package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndTimerNilSafety(t *testing.T) {
	var nilC *Counter
	nilC.Inc()
	nilC.Add(5)
	if nilC.Load() != 0 {
		t.Errorf("nil counter Load = %d", nilC.Load())
	}
	var nilT *Timer
	nilT.Observe(time.Second)
	nilT.ObserveSince(time.Now())
	if nilT.Total() != 0 || nilT.Count() != 0 {
		t.Errorf("nil timer observed something")
	}
	var nilS *PoolStats
	nilS.Dispatch()
	nilS.ObserveShard(3, time.Second)
	if nilS.Dispatches() != 0 || nilS.ShardsRun() != 0 || nilS.Busy() != 0 {
		t.Errorf("nil pool stats observed something")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Load())
	}
}

// TestPoolStatsWorkerSlots: concurrent workers each add to their own
// slot, worker indices past the slot count wrap around, and the reads
// sum every slot.
func TestPoolStatsWorkerSlots(t *testing.T) {
	ps := NewPoolStats(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ps.ObserveShard(w, 2*time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if ps.ShardsRun() != 4000 || ps.Busy() != 8000*time.Nanosecond {
		t.Errorf("pool stats = %d shards, %v busy; want 4000, 8µs", ps.ShardsRun(), ps.Busy())
	}
	if len(ps.slots) != 4 {
		t.Errorf("slots = %d, want 4", len(ps.slots))
	}
	for i := range ps.slots {
		if got := ps.slots[i].shards.Load(); got != 1000 {
			t.Errorf("slot %d ran %d shards, want 1000 (workers %d and %d)", i, got, i, i+4)
		}
	}
}

func TestTimer(t *testing.T) {
	var tm Timer
	tm.Observe(2 * time.Millisecond)
	tm.Observe(3 * time.Millisecond)
	if tm.Total() != 5*time.Millisecond || tm.Count() != 2 {
		t.Errorf("timer total=%v count=%d", tm.Total(), tm.Count())
	}
	// ObserveSince with a zero start (the nil-collector clock) is ignored.
	tm.ObserveSince(time.Time{})
	if tm.Count() != 2 {
		t.Errorf("zero start observed")
	}
}

func TestCollectorDisabled(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector enabled")
	}
	start := c.Clock()
	if !start.IsZero() {
		t.Errorf("nil collector clock = %v", start)
	}
	c.StopKernel(KernelO, start, 5, 1)
	if ps := c.AttachPool(4); ps != nil {
		t.Errorf("nil collector returned pool stats")
	}
	c.Finish(&RunStats{}) // no-op
}

func TestCollectorRecordsKernels(t *testing.T) {
	c := NewCollector()
	start := c.Clock()
	time.Sleep(time.Millisecond)
	c.StopKernel(KernelO, start, 100, 1)
	c.StopKernel(KernelW, c.Clock(), 40, 3)
	c.StopKernel(KernelW, time.Time{}, 7, 1) // a nil collector's clock: ignored
	ps := c.AttachPool(2)
	ps.Dispatch()
	ps.ObserveShard(0, time.Millisecond)
	ps.ObserveShard(1, time.Millisecond)

	var rs RunStats
	c.Finish(&rs)
	if rs.Wall <= 0 {
		t.Errorf("wall = %v", rs.Wall)
	}
	if len(rs.Kernels) != int(NumKernels) {
		t.Fatalf("kernels = %d, want %d", len(rs.Kernels), NumKernels)
	}
	if rs.KernelTime(KernelO) < time.Millisecond {
		t.Errorf("KernelO time = %v", rs.KernelTime(KernelO))
	}
	if rs.Kernels[KernelO].Calls != 1 || rs.Kernels[KernelO].Items != 100 {
		t.Errorf("KernelO calls/items = %d/%d", rs.Kernels[KernelO].Calls, rs.Kernels[KernelO].Items)
	}
	if kw := rs.Kernels[KernelW]; kw.Calls != 1 || kw.Items != 40 || kw.Cols != 3 {
		t.Errorf("KernelW calls/items/cols = %d/%d/%d, want 1/40/3", kw.Calls, kw.Items, kw.Cols)
	}
	if rs.PoolDispatches != 1 || rs.PoolShards != 2 || rs.PoolBusy != 2*time.Millisecond {
		t.Errorf("pool = %d/%d/%v", rs.PoolDispatches, rs.PoolShards, rs.PoolBusy)
	}
	out := rs.String()
	for _, want := range []string{"o_contract", "w_matvec", "pool:", "alloc:"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestKernelNames(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kernels() {
		name := k.String()
		if name == "" || seen[name] {
			t.Errorf("kernel %d has bad/duplicate name %q", k, name)
		}
		seen[name] = true
	}
	if got := Kernel(200).String(); got != "kernel_200" {
		t.Errorf("out-of-range kernel name = %q", got)
	}
}
