package stream

// Chaos tests for the durable ingest path: with a write-ahead log
// attached, a fault injected at any point past the append — mid-apply,
// mid-seal, in the post-append hook itself — must be survivable. The
// crash-equivalence property under test: after an in-process recovery
// or a restart-replay over the same log directory, the engine's
// content hash and predictions are bitwise identical to an
// uninterrupted reference engine fed the same batches. Run with -race
// (the `make recovery-chaos` target does).

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"tmark/internal/artifact"
	"tmark/internal/fault"
	"tmark/internal/obs"
	"tmark/internal/wal"
)

// walEngine builds a WAL-attached engine over its own registry and log
// directory, returning both directories for restart tests.
func walEngine(t *testing.T, extra ...EngineOption) (*Engine, *artifact.Registry, string) {
	t.Helper()
	reg, err := artifact.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("OpenRegistry: %v", err)
	}
	walDir := t.TempDir()
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	opts := append([]EngineOption{WithWAL(l)}, extra...)
	eng, err := NewEngine("durable", tinyGraph(), streamConfig(), reg, opts...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng, reg, walDir
}

// referenceState applies batches to a fresh fault-free engine and
// returns its final hash and predictions — the uninterrupted timeline a
// recovered engine must reproduce exactly.
func referenceState(t *testing.T, batches [][]Delta) (string, []int) {
	t.Helper()
	ref, err := NewEngine("reference", tinyGraph(), streamConfig(), nil)
	if err != nil {
		t.Fatalf("reference NewEngine: %v", err)
	}
	for q, b := range batches {
		if _, err := ref.Apply(context.Background(), b); err != nil {
			t.Fatalf("reference batch %d: %v", q, err)
		}
	}
	res, err := ref.Solve(context.Background())
	if err != nil {
		t.Fatalf("reference Solve: %v", err)
	}
	return ref.Current().Hash, res.Predict()
}

// assertMatchesReference proves crash equivalence: hash and predictions
// equal the uninterrupted timeline's.
func assertMatchesReference(t *testing.T, eng *Engine, batches [][]Delta) {
	t.Helper()
	wantHash, wantPred := referenceState(t, batches)
	if got := eng.Current().Hash; got != wantHash {
		t.Fatalf("recovered hash %s, uninterrupted reference %s", got, wantHash)
	}
	if eng.Current().Seq != len(batches) {
		t.Fatalf("recovered seq %d, want %d", eng.Current().Seq, len(batches))
	}
	res, err := eng.Solve(context.Background())
	if err != nil {
		t.Fatalf("recovered Solve: %v", err)
	}
	if !reflect.DeepEqual(res.Predict(), wantPred) {
		t.Fatalf("recovered predictions diverge from the uninterrupted reference")
	}
}

// TestRecoveryHealsApplyPanic: a panic mid-apply on a WAL-attached
// engine quarantines as before, but the batch's record is already
// durable — the next call recovers in process, replays the crashed
// batch and continues, landing on the uninterrupted timeline.
func TestRecoveryHealsApplyPanic(t *testing.T) {
	t.Cleanup(fault.Reset)
	mets := obs.NewRegistry()
	eng, _, _ := walEngine(t, WithMetrics(mets))
	ctx := context.Background()
	for b := 0; b < 2; b++ {
		if _, err := eng.Apply(ctx, chaosDelta(b)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}

	remove := fault.Inject(fault.StreamApply, fault.Once(func(...any) { panic("chaos: apply blew up") }))
	defer remove()
	if _, err := eng.Apply(ctx, chaosDelta(2)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Apply under panic: err = %v, want ErrQuarantined", err)
	}
	if eng.Quarantined() == nil {
		t.Fatal("engine not quarantined after the panic")
	}

	// The next batch heals first: the crashed batch replays from the log
	// (at-least-once), then this batch applies on top.
	res, err := eng.Apply(ctx, chaosDelta(3))
	if err != nil {
		t.Fatalf("Apply after quarantine did not self-heal: %v", err)
	}
	if eng.Quarantined() != nil {
		t.Fatalf("quarantine not lifted: %v", eng.Quarantined())
	}
	if res.Seq != 4 {
		t.Fatalf("post-heal seq %d, want 4 (crashed batch replayed)", res.Seq)
	}
	assertMatchesReference(t, eng, [][]Delta{
		chaosDelta(0), chaosDelta(1), chaosDelta(2), chaosDelta(3),
	})
	if mets.Counter("tmarkd_quarantine_recoveries_total").Load() != 1 {
		t.Fatal("recovery counter did not tick")
	}
	if mets.Counter("tmarkd_wal_replayed_total").Load() == 0 {
		t.Fatal("replay counter did not tick")
	}
	if mets.Counter("tmarkd_wal_appends_total").Load() != 4 {
		t.Fatalf("append counter = %d, want 4", mets.Counter("tmarkd_wal_appends_total").Load())
	}
}

// TestRecoveryHealsSealPanic: a crash between the blob write and the
// tag move recovers too — the rebuild proves against the last published
// version, and the crashed batch's replay re-seals and re-tags it.
func TestRecoveryHealsSealPanic(t *testing.T) {
	t.Cleanup(fault.Reset)
	eng, reg, _ := walEngine(t)
	ctx := context.Background()
	if _, err := eng.Apply(ctx, chaosDelta(0)); err != nil {
		t.Fatalf("first Apply: %v", err)
	}

	remove := fault.Inject(fault.StreamSeal, fault.Once(func(...any) { panic("chaos: crashed between put and tag") }))
	defer remove()
	if _, err := eng.Apply(ctx, chaosDelta(1)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Apply under seal panic: err = %v, want ErrQuarantined", err)
	}

	if _, err := eng.Solve(ctx); err != nil {
		t.Fatalf("Solve did not self-heal: %v", err)
	}
	assertMatchesReference(t, eng, [][]Delta{chaosDelta(0), chaosDelta(1)})
	// The replayed seal finished the interrupted tag move.
	got, err := reg.Resolve(artifact.Ref{Name: "durable"})
	if err != nil {
		t.Fatalf("Resolve after heal: %v", err)
	}
	if got != eng.Current().Hash {
		t.Fatalf("floating name at %s, engine at %s", got, eng.Current().Hash)
	}
}

// TestRecoveryHealsAppendHookPanic: a crash immediately after the
// fsync'd append (the narrowest crash window) is the canonical WAL
// case — the record is durable, nothing else moved.
func TestRecoveryHealsAppendHookPanic(t *testing.T) {
	t.Cleanup(fault.Reset)
	eng, _, _ := walEngine(t)
	ctx := context.Background()

	remove := fault.Inject(fault.WALAppend, fault.Once(func(...any) { panic("chaos: crashed right after fsync") }))
	defer remove()
	if _, err := eng.Apply(ctx, chaosDelta(0)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Apply under append-hook panic: err = %v, want ErrQuarantined", err)
	}
	if _, err := eng.Solve(ctx); err != nil {
		t.Fatalf("Solve did not self-heal: %v", err)
	}
	assertMatchesReference(t, eng, [][]Delta{chaosDelta(0)})
}

// TestWALAppendErrorRejectsCleanly: an append that fails before the
// write is an ordinary rejection — nothing was logged, nothing moved,
// no quarantine.
func TestWALAppendErrorRejectsCleanly(t *testing.T) {
	t.Cleanup(fault.Reset)
	eng, _, _ := walEngine(t)
	ctx := context.Background()
	injected := errors.New("chaos: disk full")
	remove := fault.InjectErr(fault.WALAppend, func() error { return injected })

	before := eng.Current()
	size := eng.WALSize()
	if _, err := eng.Apply(ctx, chaosDelta(0)); !errors.Is(err, injected) {
		t.Fatalf("Apply under append fault: err = %v, want injected error", err)
	}
	if eng.Quarantined() != nil {
		t.Fatal("clean append rejection quarantined the engine")
	}
	if eng.Current() != before || eng.WALSize() != size {
		t.Fatal("rejected batch moved state or logged bytes")
	}
	remove()
	if _, err := eng.Apply(ctx, chaosDelta(0)); err != nil {
		t.Fatalf("Apply after fault cleared: %v", err)
	}
}

// TestRecoveryFaultKeepsQuarantineSticky: when the recovery path itself
// is failing, the quarantine must hold — serving the last good version
// — and heal once recovery succeeds.
func TestRecoveryFaultKeepsQuarantineSticky(t *testing.T) {
	t.Cleanup(fault.Reset)
	eng, _, _ := walEngine(t)
	ctx := context.Background()
	if _, err := eng.Apply(ctx, chaosDelta(0)); err != nil {
		t.Fatalf("first Apply: %v", err)
	}
	good := eng.Current()

	removePanic := fault.Inject(fault.StreamApply, fault.Once(func(...any) { panic("chaos: poison") }))
	defer removePanic()
	blocked := fault.InjectErr(fault.StreamRecover, func() error { return errors.New("chaos: recovery storage offline") })

	if _, err := eng.Apply(ctx, chaosDelta(1)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("poisoning Apply: err = %v, want ErrQuarantined", err)
	}
	if _, err := eng.Apply(ctx, chaosDelta(2)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Apply with recovery blocked: err = %v, want ErrQuarantined", err)
	}
	if eng.Current() != good {
		t.Fatal("blocked recovery moved the serving version")
	}
	blocked()
	if _, err := eng.Solve(ctx); err != nil {
		t.Fatalf("Solve after recovery unblocked: %v", err)
	}
	assertMatchesReference(t, eng, [][]Delta{chaosDelta(0), chaosDelta(1)})
}

// TestNoWALQuarantineStaysSticky: without a log, recovery must refuse —
// the pre-WAL contract (restart required) still holds, and the error
// says so.
func TestNoWALQuarantineStaysSticky(t *testing.T) {
	t.Cleanup(fault.Reset)
	eng, err := NewEngine("bare", tinyGraph(), streamConfig(), nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	remove := fault.Inject(fault.StreamApply, fault.Once(func(...any) { panic("chaos: poison") }))
	defer remove()
	if _, err := eng.Apply(context.Background(), chaosDelta(0)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("poisoning Apply: err = %v", err)
	}
	if _, err := eng.Solve(context.Background()); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Solve healed without a log: err = %v", err)
	}
}

// TestRestartReplayMatchesReference is the kill -9 property: abandon a
// poisoned engine mid-stream, rebuild a fresh one over the same log
// directory, and land bitwise-identical to the uninterrupted timeline —
// including the batch whose apply crashed after its append.
func TestRestartReplayMatchesReference(t *testing.T) {
	t.Cleanup(fault.Reset)
	eng, reg, walDir := walEngine(t)
	ctx := context.Background()
	for b := 0; b < 3; b++ {
		if _, err := eng.Apply(ctx, chaosDelta(b)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	remove := fault.Inject(fault.StreamApply, fault.Once(func(...any) { panic("chaos: kill -9") }))
	if _, err := eng.Apply(ctx, chaosDelta(3)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("crashing Apply: err = %v", err)
	}
	remove()
	fault.Reset()

	// "Restart": a fresh engine over the same directory. The crashed
	// batch's record is durable, so replay includes it.
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen wal: %v", err)
	}
	mets := obs.NewRegistry()
	re, err := NewEngine("durable", tinyGraph(), streamConfig(), reg, WithWAL(l), WithMetrics(mets))
	if err != nil {
		t.Fatalf("restart NewEngine: %v", err)
	}
	assertMatchesReference(t, re, [][]Delta{
		chaosDelta(0), chaosDelta(1), chaosDelta(2), chaosDelta(3),
	})
	if got := mets.Counter("tmarkd_wal_replayed_total").Load(); got != 4 {
		t.Fatalf("restart replayed %d records, want 4", got)
	}
}

// TestRestartReplayFromCheckpoint: an aggressive checkpoint cadence
// prunes the log mid-stream; a restart rewinds to the snapshot, proves
// it by content-hash equality, and replays only the live suffix.
func TestRestartReplayFromCheckpoint(t *testing.T) {
	t.Cleanup(fault.Reset)
	eng, reg, walDir := walEngine(t, WithWALCheckpointEvery(1))
	ctx := context.Background()
	for b := 0; b < 3; b++ {
		if _, err := eng.Apply(ctx, chaosDelta(b)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	remove := fault.Inject(fault.StreamSeal, fault.Once(func(...any) { panic("chaos: kill -9 mid-seal") }))
	if _, err := eng.Apply(ctx, chaosDelta(3)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("crashing Apply: err = %v", err)
	}
	remove()
	fault.Reset()

	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen wal: %v", err)
	}
	if l.SnapshotSeq() != 3 {
		t.Fatalf("snapshot at seq %d, want 3", l.SnapshotSeq())
	}
	if recs := l.Records(); len(recs) != 1 || recs[0].Seq != 4 {
		t.Fatalf("live records after pruning: %+v", recs)
	}
	re, err := NewEngine("durable", tinyGraph(), streamConfig(), reg, WithWAL(l), WithWALCheckpointEvery(1))
	if err != nil {
		t.Fatalf("restart NewEngine: %v", err)
	}
	assertMatchesReference(t, re, [][]Delta{
		chaosDelta(0), chaosDelta(1), chaosDelta(2), chaosDelta(3),
	})
}

// TestRestartRejectsHostileSnapshot: a TMARKWS1 snapshot whose checksum
// is valid but whose adjacency is not (an index out of range, two
// entries swapped out of (k, j, i) order, a negative weight) fails
// NewEngine with an error, not a panic. The untouched snapshot, sealed
// under the base version's hash, restores.
func TestRestartRejectsHostileSnapshot(t *testing.T) {
	base, err := NewEngine("hostile", tinyGraph(), streamConfig(), nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	src := tinyGraph().AdjacencyTensor().COOView()
	cases := []struct {
		name string
		bad  func(s *wal.Snapshot) // nil: the snapshot stays intact
	}{
		{"intact", nil},
		{"index-out-of-range", func(s *wal.Snapshot) { s.I[0] = int32(s.N) + 5 }},
		{"swapped-entries", func(s *wal.Snapshot) {
			s.I[0], s.I[1] = s.I[1], s.I[0]
			s.J[0], s.J[1] = s.J[1], s.J[0]
			s.K[0], s.K[1] = s.K[1], s.K[0]
			s.V[0], s.V[1] = s.V[1], s.V[0]
		}},
		{"negative-weight", func(s *wal.Snapshot) { s.V[0] = -s.V[0] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := wal.Snapshot{
				Seq: 1, Hash: base.Current().Hash, N: src.N, M: src.M,
				I: slices.Clone(src.I), J: slices.Clone(src.J), K: slices.Clone(src.K), V: slices.Clone(src.V),
			}
			if tc.bad != nil {
				tc.bad(&snap)
			}
			dir := t.TempDir()
			l, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatalf("wal.Open: %v", err)
			}
			if err := l.Checkpoint(snap); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			// Reopened, the log reads the snapshot back from disk.
			l, err = wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatalf("reopen wal: %v", err)
			}
			if l.SnapshotSeq() != 1 {
				t.Fatalf("snapshot at seq %d, want 1", l.SnapshotSeq())
			}
			_, err = NewEngine("hostile", tinyGraph(), streamConfig(), nil, WithWAL(l))
			if tc.bad == nil && err != nil {
				t.Fatalf("intact snapshot: NewEngine: %v", err)
			}
			if tc.bad != nil {
				if err == nil {
					t.Fatal("NewEngine restored from a damaged snapshot")
				}
				t.Logf("NewEngine: %v", err)
			}
		})
	}
}

// TestApplyKeyedDeduplicates pins the idempotency contract through a
// quarantine recovery and across a restart: a key that committed is
// answered from the window, never re-applied.
func TestApplyKeyedDeduplicates(t *testing.T) {
	t.Cleanup(fault.Reset)
	mets := obs.NewRegistry()
	eng, reg, walDir := walEngine(t, WithMetrics(mets))
	ctx := context.Background()

	first, err := eng.ApplyKeyed(ctx, "job-1", chaosDelta(0))
	if err != nil {
		t.Fatalf("keyed Apply: %v", err)
	}
	dup, err := eng.ApplyKeyed(ctx, "job-1", chaosDelta(0))
	if err != nil {
		t.Fatalf("duplicate Apply: %v", err)
	}
	if !dup.Duplicate || dup.NewHash != first.NewHash || dup.Seq != first.Seq {
		t.Fatalf("duplicate answer: %+v, want the original %+v", dup, first)
	}
	if eng.Current().Seq != 1 {
		t.Fatalf("duplicate advanced the engine to seq %d", eng.Current().Seq)
	}
	if mets.Counter("tmarkd_ingest_duplicates_total").Load() != 1 {
		t.Fatal("duplicate counter did not tick")
	}

	// The window survives an in-process recovery.
	remove := fault.Inject(fault.StreamApply, fault.Once(func(...any) { panic("chaos: poison") }))
	defer remove()
	if _, err := eng.Apply(ctx, chaosDelta(1)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("poisoning Apply: err = %v", err)
	}
	dup2, err := eng.ApplyKeyed(ctx, "job-1", chaosDelta(0))
	if err != nil {
		t.Fatalf("duplicate after recovery: %v", err)
	}
	if !dup2.Duplicate || dup2.NewHash != first.NewHash {
		t.Fatalf("recovery forgot the key: %+v", dup2)
	}

	// And a restart rebuilds it from the replayed records.
	fault.Reset()
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen wal: %v", err)
	}
	re, err := NewEngine("durable", tinyGraph(), streamConfig(), reg, WithWAL(l))
	if err != nil {
		t.Fatalf("restart NewEngine: %v", err)
	}
	dup3, err := re.ApplyKeyed(ctx, "job-1", chaosDelta(0))
	if err != nil {
		t.Fatalf("duplicate after restart: %v", err)
	}
	if !dup3.Duplicate || dup3.NewHash != first.NewHash || dup3.Seq != first.Seq {
		t.Fatalf("restart forgot the key: %+v", dup3)
	}
}
