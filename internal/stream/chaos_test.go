package stream

// Chaos tests for the ingest path: injected faults in delta apply and
// version seal must leave the engine either cleanly rejecting (error,
// state untouched) or quarantined (ErrQuarantined, last version still
// serving, registry still consistent) — never half-applied. Run with
// -race (the `make chaos` target does) so the recovery paths are also
// proven free of data races.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"tmark/internal/artifact"
	"tmark/internal/fault"
)

func chaosDelta(b int) []Delta {
	return []Delta{{Op: OpAdd, From: b % 6, To: (b + 3) % 6, Relation: 1, Weight: 0.5}}
}

// TestChaosApplyPanicQuarantines: a panic mid-apply (after the new
// substrate assembles, before sealing) must poison the engine — the
// batch is lost, the previous version keeps serving, nothing was
// written to the registry, and every later call reports ErrQuarantined.
func TestChaosApplyPanicQuarantines(t *testing.T) {
	t.Cleanup(fault.Reset)
	reg, err := artifact.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("OpenRegistry: %v", err)
	}
	eng, err := NewEngine("chaos", tinyGraph(), streamConfig(), reg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	before := eng.Current()

	remove := fault.Inject(fault.StreamApply, fault.Once(func(...any) { panic("chaos: apply blew up") }))
	defer remove()

	if _, err := eng.Apply(context.Background(), chaosDelta(0)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Apply under panic: err = %v, want ErrQuarantined", err)
	}
	if eng.Current() != before {
		t.Fatal("panicked apply moved the engine version")
	}
	if eng.Quarantined() == nil {
		t.Fatal("engine not marked quarantined")
	}
	// The floating name was never tagged (no batch ever sealed), and no
	// stray blob appeared for the aborted batch.
	if _, err := reg.Resolve(artifact.Ref{Name: "chaos"}); err == nil {
		t.Fatal("aborted ingest tagged the floating name")
	}
	// The fault hook is inert now (Once), but the engine must still
	// refuse: quarantine is sticky until the process restarts.
	if _, err := eng.Apply(context.Background(), chaosDelta(1)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Apply after quarantine: err = %v, want ErrQuarantined", err)
	}
}

// TestChaosSealPanicNeverHalfSeals: a panic between the blob write and
// the tag move must leave the registry fully consistent — the floating
// name still resolves to the previous sealed version and the orphaned
// blob, if present, is complete and verifiable (tags only ever point at
// fully written blobs, so there is no "half-sealed" observable state).
func TestChaosSealPanicNeverHalfSeals(t *testing.T) {
	t.Cleanup(fault.Reset)
	reg, err := artifact.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("OpenRegistry: %v", err)
	}
	eng, err := NewEngine("chaos", tinyGraph(), streamConfig(), reg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	good, err := eng.Apply(context.Background(), chaosDelta(0))
	if err != nil {
		t.Fatalf("first Apply: %v", err)
	}

	var orphan string
	remove := fault.Inject(fault.StreamSeal, fault.Once(func(args ...any) {
		orphan = args[0].(string)
		panic("chaos: crashed between put and tag")
	}))
	defer remove()

	if _, err := eng.Apply(context.Background(), chaosDelta(1)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Apply under seal panic: err = %v, want ErrQuarantined", err)
	}
	got, err := reg.Resolve(artifact.Ref{Name: "chaos"})
	if err != nil {
		t.Fatalf("Resolve after seal panic: %v", err)
	}
	if got != good.NewHash {
		t.Fatalf("name resolves to %s after aborted seal, want previous %s", got, good.NewHash)
	}
	if eng.Current().Hash != good.NewHash {
		t.Fatalf("engine moved to %s, want %s", eng.Current().Hash, good.NewHash)
	}
	// The orphaned blob was fully written before the crash point: it
	// must open and activate like any sealed version.
	if orphan == "" {
		t.Fatal("seal fault never fired")
	}
	a, _, err := reg.OpenRef(artifact.Ref{Hash: orphan})
	if err != nil {
		t.Fatalf("orphan blob unreadable: %v", err)
	}
	if _, err := a.Activate(a.BuiltConfig); err != nil {
		t.Fatalf("orphan blob does not activate: %v", err)
	}
}

// TestChaosApplyCheckRejectsCleanly: an error (not panic) at the apply
// entry point is an ordinary rejection — no quarantine, and the next
// batch applies once the fault clears.
func TestChaosApplyCheckRejectsCleanly(t *testing.T) {
	t.Cleanup(fault.Reset)
	eng, err := NewEngine("chaos", tinyGraph(), streamConfig(), nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	injected := errors.New("chaos: ingest backpressure")
	remove := fault.InjectErr(fault.StreamApply, func() error { return injected })

	if _, err := eng.Apply(context.Background(), chaosDelta(0)); !errors.Is(err, injected) {
		t.Fatalf("Apply under check fault: err = %v, want injected error", err)
	}
	if eng.Quarantined() != nil {
		t.Fatal("clean rejection must not quarantine")
	}
	remove()
	if _, err := eng.Apply(context.Background(), chaosDelta(0)); err != nil {
		t.Fatalf("Apply after fault cleared: %v", err)
	}
}

// TestChaosConcurrentReadsDuringApply hammers version reads (and solves
// on pinned versions) while batches apply and one apply panics — the
// version-pinned read contract under -race: a reader's model never
// observes a mutation, before, during, or after a fault.
func TestChaosConcurrentReadsDuringApply(t *testing.T) {
	t.Cleanup(fault.Reset)
	eng, err := NewEngine("chaos", tinyGraph(), streamConfig(), nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	remove := fault.Inject(fault.StreamApply, fault.Nth(3, func(...any) { panic("chaos: mid-stream crash") }))
	defer remove()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := eng.Current()
				// Re-solving the pinned version's model must be safe and
				// deterministic regardless of concurrent ingests.
				res := v.Model.RunContext(context.Background())
				if pred := res.Predict(); len(pred) != 6 {
					t.Errorf("pinned solve returned %d predictions", len(pred))
					return
				}
			}
		}()
	}
	var sawQuarantine bool
	for b := 0; b < 6; b++ {
		if _, err := eng.Apply(context.Background(), chaosDelta(b)); err != nil {
			if !errors.Is(err, ErrQuarantined) {
				t.Errorf("batch %d: unexpected error %v", b, err)
			}
			sawQuarantine = true
		}
	}
	close(stop)
	wg.Wait()
	if !sawQuarantine {
		t.Fatal("the injected panic never surfaced")
	}
}

// TestReaderNeverWaitsForApply: Current takes no lock, so while an
// ApplyKeyed is held mid-apply a reader on another goroutine still gets
// the committed version at once, and the new version once the apply
// commits. Run with -race (the `make chaos` target does).
func TestReaderNeverWaitsForApply(t *testing.T) {
	t.Cleanup(fault.Reset)
	reg, err := artifact.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("OpenRegistry: %v", err)
	}
	eng, err := NewEngine("chaos", tinyGraph(), streamConfig(), reg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	before := eng.Current()

	held, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	fault.Inject(fault.StreamApply, fault.Once(func(...any) {
		close(held)
		<-release
	}))
	applied := make(chan error, 1)
	go func() {
		_, err := eng.ApplyKeyed(context.Background(), "held", chaosDelta(0))
		applied <- err
	}()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("ApplyKeyed never reached stream/apply")
	}

	read := make(chan *Version, 1)
	go func() { read <- eng.Current() }()
	select {
	case v := <-read:
		if v != before {
			t.Fatalf("Current under a held apply returned seq %d, want the committed seq %d", v.Seq, before.Seq)
		}
	case <-time.After(time.Second):
		t.Fatal("Current waited for the held apply")
	}

	releaseOnce()
	if err := <-applied; err != nil {
		t.Fatalf("ApplyKeyed: %v", err)
	}
	if v := eng.Current(); v.Seq != before.Seq+1 || v.Hash == before.Hash {
		t.Fatalf("after the apply committed, Current is seq %d %s, want seq %d and a new hash", v.Seq, v.Hash, before.Seq+1)
	}
}
