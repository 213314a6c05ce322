package tmark

// Checkpoint/resume tests: a run interrupted mid-solve and resumed from
// its flushed snapshot must be bitwise identical to the uninterrupted
// run — across worker counts, kernel implementations (vectorised and
// scalar reference), ICA modes, and both batched loops (class run and
// column solve). The wire format is exercised on every resume: each
// snapshot passes through Encode/DecodeCheckpoint before it is restored.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tmark/internal/vec"
)

// ckConfig is a config whose runs take comfortably more than ten
// iterations, so a mid-run interruption at iteration 7 always happens.
func ckConfig(ica bool, workers int) Config {
	cfg := DefaultConfig()
	cfg.ICAUpdate = ica
	cfg.Epsilon = 1e-10
	cfg.MaxIterations = 40
	cfg.Workers = workers
	return cfg
}

// reloop round-trips a checkpoint through the binary format, failing the
// test on any decode error — every resume test goes through the wire.
func reloop(t *testing.T, cp *Checkpoint) *Checkpoint {
	t.Helper()
	if cp == nil {
		t.Fatal("no checkpoint was saved")
	}
	cp2, err := DecodeCheckpoint(cp.Encode())
	if err != nil {
		t.Fatalf("round-trip decode: %v", err)
	}
	return cp2
}

func TestKillAndResumeBitwiseIdentical(t *testing.T) {
	g := benchGraph(120)
	for _, ica := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			for _, scalar := range []bool{false, true} {
				label := fmt.Sprintf("ica=%v workers=%d scalar=%v", ica, workers, scalar)
				m, err := New(g, ckConfig(ica, workers))
				if err != nil {
					t.Fatal(err)
				}
				ref := m.RunContext(context.Background(), WithScalarKernels(scalar))

				// Interrupt the run once any class completes iteration 7;
				// the loop notices at the top of iteration 8 and flushes a
				// final snapshot of the completed state.
				ctx, cancel := context.WithCancel(context.Background())
				sink := &MemorySink{}
				killed := m.RunContext(ctx, WithScalarKernels(scalar),
					WithCheckpoint(sink, 3),
					WithProgress(func(class, iter int, rho float64) {
						if iter >= 7 {
							cancel()
						}
					}))
				cancel()
				if killed.Reason != ReasonCanceled {
					t.Fatalf("%s: interrupted run reason %v", label, killed.Reason)
				}

				resumed := m.RunContext(context.Background(), WithScalarKernels(scalar),
					ResumeFrom(reloop(t, sink.Last())))
				if resumed.Reason != ref.Reason {
					t.Errorf("%s: resumed reason %v, want %v", label, resumed.Reason, ref.Reason)
				}
				assertResultsBitwise(t, label, resumed, ref)
			}
		}
	}
}

// The drain flush must capture exactly the state the interrupted run
// reports: resuming from it and the interrupted Result itself agree on
// every class's partial iterate.
func TestInterruptedFlushMatchesReportedState(t *testing.T) {
	m, err := New(benchGraph(100), ckConfig(true, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sink := &MemorySink{}
	killed := m.RunContext(ctx, WithCheckpoint(sink, 100), // cadence never fires
		WithProgress(func(class, iter int, rho float64) {
			if iter >= 5 {
				cancel()
			}
		}))
	cancel()
	cp := reloop(t, sink.Last())
	if cp.Iter != killed.Classes[0].Iterations {
		t.Fatalf("flushed checkpoint at iteration %d, result reports %d", cp.Iter, killed.Classes[0].Iterations)
	}
	for c := range killed.Classes {
		got := vec.New(cp.N)
		for col, cc := range cp.ClassOf {
			if cc == c {
				vec.GatherCol(cp.X, col, cp.B, got)
				if d := vec.Diff1(got, killed.Classes[c].X); d != 0 {
					t.Errorf("class %d: flushed X differs from reported X by %v", c, d)
				}
			}
		}
	}
}

func TestResumeThroughDirSink(t *testing.T) {
	m, err := New(benchGraph(100), ckConfig(true, 1))
	if err != nil {
		t.Fatal(err)
	}
	ref := m.RunContext(context.Background())

	dir := t.TempDir()
	sink := DirSink{Dir: dir}
	ctx, cancel := context.WithCancel(context.Background())
	m.RunContext(ctx, WithCheckpoint(sink, 2), WithProgress(func(class, iter int, rho float64) {
		if iter >= 6 {
			cancel()
		}
	}))
	cancel()

	cp, err := LoadCheckpointFile(sink.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ValidateCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	resumed := m.RunContext(context.Background(), ResumeFrom(cp))
	assertResultsBitwise(t, "dir-sink", resumed, ref)

	// The sink replaces atomically: no temp files may linger.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(sink.Path()) {
			t.Errorf("unexpected file %q left in checkpoint dir", e.Name())
		}
	}
}

// Resuming across worker counts is allowed (Workers is excluded from the
// config hash); the result then matches a fresh run at the new worker
// count only up to shard-reduction rounding, so here we just assert the
// resume is accepted and completes.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	g := benchGraph(100)
	m1, err := New(g, ckConfig(true, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sink := &MemorySink{}
	m1.RunContext(ctx, WithCheckpoint(sink, 2), WithProgress(func(class, iter int, rho float64) {
		if iter >= 6 {
			cancel()
		}
	}))
	cancel()

	m4, err := New(g, ckConfig(true, 4))
	if err != nil {
		t.Fatal(err)
	}
	res := m4.RunContext(context.Background(), ResumeFrom(reloop(t, sink.Last())))
	if res.Reason != ReasonConverged && res.Reason != ReasonMaxIterations {
		t.Fatalf("cross-worker resume reason %v", res.Reason)
	}
}

func TestSolveColumnsKillAndResume(t *testing.T) {
	g := benchGraph(120)
	queries := []ColumnQuery{
		{Seeds: []int{0, 4, 8, 12}},
		{Seeds: []int{1, 5, 9}, ICA: true},
		{Seeds: []int{2, 6, 10, 14}},
	}
	for _, workers := range []int{1, 4} {
		label := fmt.Sprintf("workers=%d", workers)
		m, err := New(g, ckConfig(false, workers))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := m.SolveColumns(context.Background(), queries)
		if err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		sink := &MemorySink{}
		killed, err := m.SolveColumns(ctx, queries, WithCheckpoint(sink, 3),
			WithProgress(func(col, iter int, rho float64) {
				if iter >= 7 {
					cancel()
				}
			}))
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		for i := range killed {
			if killed[i].Stopped == nil && !killed[i].Converged {
				t.Fatalf("%s: column %d neither stopped nor converged", label, i)
			}
		}

		resumed, err := m.SolveColumns(context.Background(), queries, ResumeFrom(reloop(t, sink.Last())))
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if d := vec.Diff1(resumed[i].X, ref[i].X); d != 0 {
				t.Errorf("%s: column %d X diverged by %v", label, i, d)
			}
			if d := vec.Diff1(resumed[i].Z, ref[i].Z); d != 0 {
				t.Errorf("%s: column %d Z diverged by %v", label, i, d)
			}
			if resumed[i].Iterations != ref[i].Iterations {
				t.Errorf("%s: column %d iterations %d vs %d", label, i, resumed[i].Iterations, ref[i].Iterations)
			}
			if len(resumed[i].Trace) != len(ref[i].Trace) {
				t.Errorf("%s: column %d trace lengths %d vs %d", label, i, len(resumed[i].Trace), len(ref[i].Trace))
				continue
			}
			for k := range ref[i].Trace {
				if resumed[i].Trace[k] != ref[i].Trace[k] {
					t.Errorf("%s: column %d trace[%d] = %v vs %v", label, i, k, resumed[i].Trace[k], ref[i].Trace[k])
					break
				}
			}
		}
	}
}

// SolveColumn is SolveColumns with one query, so the checkpoint options
// apply to a solo exact query exactly as to a batch: WithCheckpoint
// saves column-run snapshots, a class-run checkpoint is rejected as a
// mismatch, and a resume continues at the snapshot's iteration and ends
// bitwise on the uninterrupted answer.
func TestSolveColumnHonoursCheckpointOptions(t *testing.T) {
	g := benchGraph(120)
	m, err := New(g, ckConfig(false, 1))
	if err != nil {
		t.Fatal(err)
	}
	q := ColumnQuery{Seeds: []int{0, 4, 8, 12}, Quality: QualityExact}
	ref, err := m.SolveColumn(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	sink := &MemorySink{}
	if _, err := m.SolveColumn(context.Background(), q, WithCheckpoint(sink, 1)); err != nil {
		t.Fatal(err)
	}
	if cp := sink.Last(); cp == nil || cp.Kind != ckKindColumns || cp.Q != 1 {
		t.Errorf("WithCheckpoint(sink, 1) saved %+v, want a one-column column-run snapshot", cp)
	}

	classSink := &MemorySink{}
	m.RunContext(context.Background(), WithCheckpoint(classSink, 2))
	if _, err := m.SolveColumn(context.Background(), q, ResumeFrom(reloop(t, classSink.Last()))); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("resume from a class-run checkpoint: err = %v, want ErrCheckpointMismatch", err)
	}

	// The snapshot comes from a batch of one, so this leg checks the
	// resume alone.
	at4 := &MemorySink{}
	ctx, cancel := context.WithCancel(context.Background())
	_, err = m.SolveColumns(ctx, []ColumnQuery{q}, WithCheckpoint(at4, 4), WithProgress(func(_, iter int, _ float64) {
		if iter == 4 {
			cancel()
		}
	}))
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	cp := reloop(t, at4.Last())
	if cp.Iter != 4 {
		t.Fatalf("interrupted solve snapshotted iteration %d, want 4", cp.Iter)
	}
	first := 0
	resumed, err := m.SolveColumn(context.Background(), q, ResumeFrom(cp), WithProgress(func(_, iter int, _ float64) {
		if first == 0 {
			first = iter
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if first != 5 {
		t.Errorf("resumed solve started at iteration %d, want 5", first)
	}
	sameVec(t, "resumed.X", resumed.X, ref.X)
	sameVec(t, "resumed.Z", resumed.Z, ref.Z)
	if resumed.Iterations != ref.Iterations || resumed.Converged != ref.Converged {
		t.Errorf("resumed iterations/converged %d/%v, want %d/%v",
			resumed.Iterations, resumed.Converged, ref.Iterations, ref.Converged)
	}
}

func TestValidateCheckpointRejectsMismatches(t *testing.T) {
	g := benchGraph(100)
	m, err := New(g, ckConfig(true, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sink := &MemorySink{}
	m.RunContext(ctx, WithCheckpoint(sink, 2), WithProgress(func(class, iter int, rho float64) {
		if iter >= 5 {
			cancel()
		}
	}))
	cancel()
	cp := sink.Last()
	if cp == nil {
		t.Fatal("no checkpoint saved")
	}
	if err := m.ValidateCheckpoint(cp); err != nil {
		t.Fatalf("own checkpoint rejected: %v", err)
	}

	// Different hyper-parameters: the config hash must not match.
	cfg2 := ckConfig(true, 1)
	cfg2.Alpha = 0.9
	m2, err := New(g, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.ValidateCheckpoint(cp); err == nil {
		t.Error("checkpoint with different Alpha accepted")
	}

	// Different graph: the dimensions must not match.
	m3, err := New(benchGraph(80), ckConfig(true, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m3.ValidateCheckpoint(cp); err == nil {
		t.Error("checkpoint for different graph accepted")
	}

	// Wrong kind for the API: a class checkpoint cannot resume columns.
	if _, err := m.SolveColumns(context.Background(),
		[]ColumnQuery{{Seeds: []int{0}}}, ResumeFrom(cp)); err == nil {
		t.Error("class checkpoint accepted by SolveColumns")
	}

	// And vice versa: a panic on RunContext, per the documented contract.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched checkpoint did not panic RunContext")
			}
		}()
		cp2 := *cp
		cp2.ConfigHash++
		m.RunContext(context.Background(), ResumeFrom(&cp2))
	}()
}

func TestDecodeCheckpointRejectsCorruption(t *testing.T) {
	m, err := New(benchGraph(80), ckConfig(true, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sink := &MemorySink{}
	m.RunContext(ctx, WithCheckpoint(sink, 2), WithProgress(func(class, iter int, rho float64) {
		if iter >= 5 {
			cancel()
		}
	}))
	cancel()
	data := sink.Last().Encode()
	if _, err := DecodeCheckpoint(data); err != nil {
		t.Fatalf("clean checkpoint rejected: %v", err)
	}

	cases := map[string][]byte{
		"empty":     {},
		"truncated": data[:len(data)/2],
		"trailing":  append(append([]byte(nil), data...), 0),
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-1] ^= 0xff // checksum byte
	cases["bad-checksum"] = flipped
	wrongVersion := append([]byte(nil), data...)
	wrongVersion[7] = '2' // magic "TMARKCP2"
	cases["wrong-version"] = wrongVersion
	corruptBody := append([]byte(nil), data...)
	corruptBody[20] ^= 0xff // inside the dimension header
	cases["corrupt-body"] = corruptBody

	for name, bad := range cases {
		if _, err := DecodeCheckpoint(bad); err == nil {
			t.Errorf("%s: corrupted checkpoint decoded without error", name)
		}
	}
}

func TestConfigHashIgnoresWorkers(t *testing.T) {
	a := ckConfig(true, 1)
	b := ckConfig(true, 8)
	if a.checkpointHash() != b.checkpointHash() {
		t.Error("Workers changed the checkpoint config hash")
	}
	c := ckConfig(true, 1)
	c.Epsilon *= 2
	if a.checkpointHash() == c.checkpointHash() {
		t.Error("Epsilon did not change the checkpoint config hash")
	}
}

func TestGuardHelpers(t *testing.T) {
	g := DefaultGuards()
	if kind, bad := badMass(math.NaN(), false, nil); !bad || kind != faultNonFinite {
		t.Errorf("NaN mass: %q %v", kind, bad)
	}
	if kind, bad := badMass(1+2e-6, true, &g); !bad || kind != faultMassDrift {
		t.Errorf("drifted mass: %q %v", kind, bad)
	}
	if _, bad := badMass(1+2e-6, true, nil); bad {
		t.Error("mass drift flagged without guards")
	}
	if _, bad := badMass(1, true, &g); bad {
		t.Error("unit mass flagged")
	}
	if !stagnated([]float64{1, 0.5, 0.1001, 0.1002, 0.1001}, &GuardConfig{Stagnation: 3, StagnationTol: 1e-2}) {
		t.Error("flat tail not flagged as stagnated")
	}
	if stagnated([]float64{1, 0.5, 0.25, 0.12, 0.06}, &GuardConfig{Stagnation: 3, StagnationTol: 1e-2}) {
		t.Error("decaying tail flagged as stagnated")
	}
	if !diverged(2000, 1, &g) {
		t.Error("residual 2000x best not flagged as diverged")
	}
	if diverged(2, 1, &g) {
		t.Error("residual 2x best flagged as diverged")
	}
}

func FuzzDecodeCheckpoint(f *testing.F) {
	m, err := New(benchGraph(40), ckConfig(true, 1))
	if err != nil {
		f.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sink := &MemorySink{}
	m.RunContext(ctx, WithCheckpoint(sink, 1), WithProgress(func(class, iter int, rho float64) {
		if iter >= 3 {
			cancel()
		}
	}))
	cancel()
	data := sink.Last().Encode()

	f.Add(data)
	f.Add(data[:len(data)/2]) // truncated
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-3] ^= 0x40 // flipped checksum byte
	f.Add(flipped)
	wrongVersion := append([]byte(nil), data...)
	wrongVersion[7] = '9'
	f.Add(wrongVersion)
	f.Add([]byte{})
	f.Add([]byte("TMARKCP1"))

	f.Fuzz(func(t *testing.T, b []byte) {
		cp, err := DecodeCheckpoint(b) // must never panic
		if err != nil {
			return
		}
		// Anything that decodes must re-encode to a decodable checkpoint.
		if _, err := DecodeCheckpoint(cp.Encode()); err != nil {
			t.Fatalf("round-trip of accepted checkpoint failed: %v", err)
		}
	})
}
