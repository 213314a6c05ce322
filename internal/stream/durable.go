package stream

// Durability: the engine's write-ahead-log restore, replay and
// self-healing quarantine recovery paths.
//
// Two invariants make replay sound:
//
//   - A record is appended (fsync'd) after the batch composes but
//     before any derived state is built, carrying the sequence number
//     the batch would commit as. Sequence numbers only advance on
//     commit, so several records can share one value: every record of a
//     group except the last was a clean post-append rejection, and the
//     last record of group X committed if and only if the history moved
//     past X.
//
//   - The committed state at any sequence point is a pure function of
//     the raw adjacency there: an apply, a replay and a recovery all
//     build their substrate from it with substrateAt. Recovery
//     therefore proves its rebuild against the sealed history by
//     content-hash equality before trusting it.
//
// For the final, un-acknowledged record group (the crash window),
// replay is at-least-once: each surviving record re-applies in order,
// and clean failures skip. The client-facing idempotency keys ride in
// the records, so a retried batch deduplicates across the crash instead
// of double-applying.

import (
	"fmt"

	"tmark/internal/artifact"
	"tmark/internal/fault"
	"tmark/internal/tensor"
	"tmark/internal/tmark"
	"tmark/internal/wal"
)

// toWALDeltas translates a validated batch into the log's wire form.
func toWALDeltas(deltas []Delta) []wal.Delta {
	out := make([]wal.Delta, len(deltas))
	for q, d := range deltas {
		w := wal.Delta{
			From:     int32(d.From),
			To:       int32(d.To),
			Relation: int32(d.Relation),
			Weight:   d.Weight,
		}
		switch d.Op {
		case OpAdd:
			w.Op = wal.OpAdd
		case OpUpdate:
			w.Op = wal.OpUpdate
		case OpRemove:
			w.Op = wal.OpRemove
		}
		out[q] = w
	}
	return out
}

// fromWALDeltas translates a decoded record's deltas back into the
// engine's form. DecodeRecord already rejected unknown op codes.
func fromWALDeltas(ds []wal.Delta) []Delta {
	out := make([]Delta, len(ds))
	for q, d := range ds {
		s := Delta{
			From:     int(d.From),
			To:       int(d.To),
			Relation: int(d.Relation),
			Weight:   d.Weight,
		}
		switch d.Op {
		case wal.OpAdd:
			s.Op = OpAdd
		case wal.OpUpdate:
			s.Op = OpUpdate
		case wal.OpRemove:
			s.Op = OpRemove
		}
		out[q] = s
	}
	return out
}

// rebuildAt derives the full committed state at a raw adjacency: the
// assembled model and the content hash it would seal under. The
// substrate comes from substrateAt, as every applied batch's does, so
// the rebuild is bitwise the version the engine sealed at that point.
// substrateAt checks the adjacency before it builds anything, so a
// damaged WAL snapshot is an error here, never a panic.
func (e *Engine) rebuildAt(ao tensor.COO) (*tmark.Model, string, error) {
	sub, err := e.substrateAt(ao)
	if err != nil {
		return nil, "", err
	}
	model, err := tmark.Assemble(e.g, e.cfg, sub)
	if err != nil {
		return nil, "", err
	}
	data, err := artifact.EncodeModel(e.g, e.cfg, sub)
	if err != nil {
		return nil, "", err
	}
	return model, artifact.Hash(data), nil
}

// foldCommitted folds the log's committed records over (base, baseSeq]
// up to and including target into a new raw adjacency. Only the last
// record of each sequence group folds — the earlier members were clean
// post-append rejections that never moved state. Composition is merge
// only: no substrate build or sealing happens here.
func (e *Engine) foldCommitted(base tensor.COO, baseSeq, target uint64) (tensor.COO, error) {
	recs := e.log.Records()
	ao := base
	for q, rec := range recs {
		if rec.Seq <= baseSeq || rec.Seq > target {
			continue
		}
		if q+1 < len(recs) && recs[q+1].Seq == rec.Seq {
			continue // superseded: a later record re-used the sequence number
		}
		eff, err := compose(e.g, ao, fromWALDeltas(rec.Deltas))
		if err != nil {
			return tensor.COO{}, fmt.Errorf("stream: committed record at seq %d no longer composes: %w", rec.Seq, err)
		}
		merged, err := tensor.MergeKJI(ao, eff.kji)
		if err != nil {
			return tensor.COO{}, fmt.Errorf("stream: committed record at seq %d no longer merges: %w", rec.Seq, err)
		}
		ao = merged
	}
	return ao, nil
}

// replayLog restores the engine from its write-ahead log at
// construction: rewind to the snapshot (verified by content-hash
// equality), then run every surviving record through the full apply
// path. Clean failures skip — the final record group is the
// un-acknowledged crash window and replays at-least-once — but a panic
// mid-replay fails construction rather than publishing a state the log
// cannot vouch for.
func (e *Engine) replayLog() error {
	if snap := e.log.Snapshot(); snap != nil {
		if snap.N != e.g.N() || snap.M != e.g.M() {
			return fmt.Errorf("stream: wal snapshot is %dx%d, graph is %dx%d — wrong dataset?",
				snap.N, snap.M, e.g.N(), e.g.M())
		}
		ao := tensor.COO{N: snap.N, M: snap.M, I: snap.I, J: snap.J, K: snap.K, V: snap.V}
		model, hash, err := e.rebuildAt(ao)
		if err != nil {
			return fmt.Errorf("stream: wal snapshot at seq %d: %w", snap.Seq, err)
		}
		if hash != snap.Hash {
			return fmt.Errorf("stream: wal snapshot at seq %d rebuilds to %s, snapshot sealed as %s",
				snap.Seq, hash, snap.Hash)
		}
		e.ao = ao
		e.commitLocked(&Version{Seq: int(snap.Seq), Hash: hash, Model: model})
	}
	for _, rec := range e.log.Records() {
		if rec.Seq <= uint64(e.cur.Seq) {
			continue
		}
		if _, err := e.applyLocked(rec.Key, fromWALDeltas(rec.Deltas), false); err != nil {
			if e.poisoned != nil {
				return fmt.Errorf("stream: wal replay at seq %d: %w", rec.Seq, err)
			}
			continue // clean rejection, same as the original timeline
		}
		e.met.replayed.Inc()
	}
	return nil
}

// recoverLocked is the self-healing path out of quarantine: discard the
// poisoned in-memory substrate, rewind to the log's snapshot (or the
// pristine source graph), fold the committed records, and prove the
// rebuild equals the sealed history — content-hash equality with the
// last published version, whose blob must still verify in the registry.
// Only then does the rebuilt state install, the quarantine lift and the
// logged-but-unsealed suffix replay. Any mismatch keeps the quarantine:
// a log that cannot re-derive the published state is worse than no log.
// Callers hold e.mu.
func (e *Engine) recoverLocked() error {
	cause := e.poisoned
	if e.log == nil {
		return fmt.Errorf("%w: %v (no write-ahead log; restart required)", ErrQuarantined, cause)
	}
	if fault.Enabled() {
		if err := fault.Check(fault.StreamRecover); err != nil {
			return fmt.Errorf("%w: recovery: %v (quarantined by: %v)", ErrQuarantined, err, cause)
		}
	}
	base, baseSeq := e.srcAO, uint64(0)
	if snap := e.log.Snapshot(); snap != nil {
		base = tensor.COO{N: snap.N, M: snap.M, I: snap.I, J: snap.J, K: snap.K, V: snap.V}
		baseSeq = snap.Seq
	}
	target := uint64(e.cur.Seq)
	ao, err := e.foldCommitted(base, baseSeq, target)
	if err != nil {
		return fmt.Errorf("%w: recovery: %v (quarantined by: %v)", ErrQuarantined, err, cause)
	}
	model, hash, err := e.rebuildAt(ao)
	if err != nil {
		return fmt.Errorf("%w: recovery: %v (quarantined by: %v)", ErrQuarantined, err, cause)
	}
	if hash != e.cur.Hash {
		return fmt.Errorf("%w: recovery rebuilt seq %d as %s, sealed history says %s (quarantined by: %v)",
			ErrQuarantined, target, hash, e.cur.Hash, cause)
	}
	if e.reg != nil {
		if _, _, rerr := e.reg.OpenRef(artifact.Ref{Hash: hash}); rerr != nil {
			return fmt.Errorf("%w: recovery: sealed version %s unavailable: %v (quarantined by: %v)",
				ErrQuarantined, hash, rerr, cause)
		}
	}
	// The rebuild is proven: install it and lift the quarantine.
	e.ao = ao
	e.commitLocked(&Version{Seq: int(target), Hash: hash, Model: model})
	e.poisoned = nil
	e.met.recoveries.Inc()

	replayed := 0
	for _, rec := range e.log.Records() {
		if rec.Seq <= target {
			continue
		}
		if _, aerr := e.applyLocked(rec.Key, fromWALDeltas(rec.Deltas), false); aerr != nil {
			if e.poisoned != nil {
				return fmt.Errorf("%w: replay re-poisoned at seq %d: %v", ErrQuarantined, rec.Seq, e.poisoned)
			}
			continue
		}
		e.met.replayed.Inc()
		replayed++
	}
	if fault.Enabled() {
		fault.Fire(fault.StreamRecover, int(target), replayed)
	}
	return nil
}
