package fault

import (
	"errors"
	"sync"
	"testing"
)

func TestDisabledByDefault(t *testing.T) {
	t.Cleanup(Reset)
	if Enabled() {
		t.Fatal("Enabled() = true with no hooks registered")
	}
	Fire(TensorNodeBatch, 1, 2) // must be a no-op
	if err := Check(ServeModelBuild); err != nil {
		t.Fatalf("Check on empty registry = %v, want nil", err)
	}
}

func TestInjectFireRemove(t *testing.T) {
	t.Cleanup(Reset)
	var got []any
	remove := Inject(TensorNodeBatch, func(args ...any) { got = append(got, args...) })
	if !Enabled() {
		t.Fatal("Enabled() = false after Inject")
	}
	Fire(TensorNodeBatch, "a", 7)
	Fire(TensorRelationBatch, "ignored") // different point
	if len(got) != 2 || got[0] != "a" || got[1] != 7 {
		t.Fatalf("hook saw %v, want [a 7]", got)
	}
	remove()
	remove() // idempotent
	if Enabled() {
		t.Fatal("Enabled() = true after removal")
	}
	Fire(TensorNodeBatch, "b")
	if len(got) != 2 {
		t.Fatalf("removed hook still fired: %v", got)
	}
}

func TestInjectErrCheck(t *testing.T) {
	t.Cleanup(Reset)
	want := errors.New("disk full")
	remove := InjectErr(ServeModelBuild, func() error { return want })
	defer remove()
	if err := Check(ServeModelBuild); !errors.Is(err, want) {
		t.Fatalf("Check = %v, want %v", err, want)
	}
	if err := Check(ArtifactOpen); err != nil {
		t.Fatalf("Check on other point = %v, want nil", err)
	}
}

func TestMultipleHooksRunInOrder(t *testing.T) {
	t.Cleanup(Reset)
	var order []int
	Inject(ServeBatchSolve, func(...any) { order = append(order, 1) })
	Inject(ServeBatchSolve, func(...any) { order = append(order, 2) })
	Fire(ServeBatchSolve)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("hook order %v, want [1 2]", order)
	}
}

func TestReset(t *testing.T) {
	Inject(TensorNodeBatch, func(...any) {})
	InjectErr(ServeModelBuild, func() error { return errors.New("x") })
	Reset()
	if Enabled() {
		t.Fatal("Enabled() = true after Reset")
	}
	if err := Check(ServeModelBuild); err != nil {
		t.Fatalf("Check after Reset = %v, want nil", err)
	}
}

func TestNthAndOnce(t *testing.T) {
	t.Cleanup(Reset)
	hits := 0
	Inject(TensorNodeBatch, Nth(3, func(...any) { hits++ }))
	for i := 0; i < 10; i++ {
		Fire(TensorNodeBatch)
	}
	if hits != 1 {
		t.Fatalf("Nth(3) fired %d times over 10 hits, want 1", hits)
	}
	onceHits := 0
	Inject(TensorRelationBatch, Once(func(...any) { onceHits++ }))
	Fire(TensorRelationBatch)
	Fire(TensorRelationBatch)
	if onceHits != 1 {
		t.Fatalf("Once fired %d times, want 1", onceHits)
	}
}

// TestConcurrentFire exercises the registry from many goroutines — the
// kernels fire points from worker pools, so this must be race-clean.
func TestConcurrentFire(t *testing.T) {
	t.Cleanup(Reset)
	var mu sync.Mutex
	count := 0
	remove := Inject(TensorNodeBatch, func(...any) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if Enabled() {
					Fire(TensorNodeBatch)
				}
			}
		}()
	}
	wg.Wait()
	remove()
	mu.Lock()
	defer mu.Unlock()
	if count != 800 {
		t.Fatalf("hook fired %d times, want 800", count)
	}
}

func TestPanicPropagates(t *testing.T) {
	t.Cleanup(Reset)
	Inject(ServeModelBuild, func(...any) { panic("injected crash") })
	defer func() {
		if recover() == nil {
			t.Fatal("panic from hook did not propagate")
		}
	}()
	Fire(ServeModelBuild)
}
