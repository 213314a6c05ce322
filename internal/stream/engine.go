package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tmark/internal/artifact"
	"tmark/internal/fault"
	"tmark/internal/hin"
	"tmark/internal/obs"
	"tmark/internal/tensor"
	"tmark/internal/tmark"
	"tmark/internal/wal"
)

// ErrQuarantined marks an engine poisoned by a mid-ingest fault. The
// last published version keeps serving (it was never touched). With a
// write-ahead log attached the quarantine is self-healing: the next
// Apply discards the poisoned substrate, rebuilds from the log's
// snapshot, proves the rebuild against the sealed history by
// content-hash equality and replays the logged suffix. Without a log
// the quarantine is sticky until the process restarts.
var ErrQuarantined = errors.New("stream: ingest engine quarantined")

// ErrInvalidBatch marks a batch refused for its content: a delta that
// breaks a static rule, addresses an edge or relation the graph does
// not have, updates or removes an absent edge, or adds a weight that
// overflows. Such a refusal happens before the write-ahead point, so
// nothing was logged and nothing moved. Every other Apply error is the
// engine's own failure.
var ErrInvalidBatch = errors.New("stream: invalid delta batch")

// DedupWindow bounds the idempotency-key window: how many recently
// committed batch keys Apply remembers for duplicate detection.
const DedupWindow = 1024

// DefaultWALCheckpointEvery is the log-checkpoint cadence in committed
// batches: how often the engine snapshots the raw adjacency so the log
// can prune its sealed prefix.
const DefaultWALCheckpointEvery = 64

// Version is one sealed model state: the model after some prefix of the
// applied batches and its content hash.
type Version struct {
	// Seq counts applied batches; 0 is the unmutated source graph.
	Seq int
	// Hash is the canonical content hash of the version's artifact
	// encoding — identical to what artifact.Compile of an equivalently
	// mutated graph would produce.
	Hash string
	// Model is the assembled servable model for this version.
	Model *tmark.Model
}

// EngineOption configures NewEngine beyond its required arguments.
type EngineOption func(*Engine)

// WithWAL attaches a write-ahead log: every accepted batch is logged
// (fsync'd) before any state moves, construction replays the log's
// live suffix on top of its snapshot, and quarantines become
// self-healing. The engine owns the log's append position; nothing
// else may append to it.
func WithWAL(l *wal.Log) EngineOption { return func(e *Engine) { e.log = l } }

// WithMetrics wires the engine's durability counters
// (tmarkd_wal_appends_total, tmarkd_wal_replayed_total,
// tmarkd_ingest_duplicates_total, tmarkd_quarantine_recoveries_total)
// into reg. Counters are shared per name, so engines on one registry
// aggregate.
func WithMetrics(reg *obs.Registry) EngineOption {
	return func(e *Engine) {
		e.met = engineMetrics{
			appends:    reg.Counter("tmarkd_wal_appends_total"),
			replayed:   reg.Counter("tmarkd_wal_replayed_total"),
			duplicates: reg.Counter("tmarkd_ingest_duplicates_total"),
			recoveries: reg.Counter("tmarkd_quarantine_recoveries_total"),
		}
	}
}

// WithWALCheckpointEvery overrides the log-checkpoint cadence in
// committed batches (default DefaultWALCheckpointEvery). Lower values
// prune the log more aggressively at the cost of a raw-adjacency
// snapshot per checkpoint.
func WithWALCheckpointEvery(n int) EngineOption {
	return func(e *Engine) {
		if n > 0 {
			e.walEvery = n
		}
	}
}

// engineMetrics is the durability instrument set; the zero value (no
// WithMetrics) is inert because obs counters are nil-safe.
type engineMetrics struct {
	appends    *obs.Counter
	replayed   *obs.Counter
	duplicates *obs.Counter
	recoveries *obs.Counter
}

// Engine owns the mutable state of one live model: the raw adjacency in
// its (k, j, i) order, the current Version, and the registry the
// versions seal into. All methods are safe for concurrent use; Apply
// calls serialise, and Current never waits for them.
type Engine struct {
	mu   sync.Mutex
	name string
	g    *hin.Graph
	cfg  tmark.Config
	reg  *artifact.Registry

	ao tensor.COO // raw adjacency of cur, (k,j,i)-ordered
	// cur is the writer's committed version, under mu. pub publishes the
	// same pointer to Current's lock-free readers; commitLocked moves both.
	cur      *Version
	pub      atomic.Pointer[Version]
	poisoned error

	// Durability state. srcAO and baseSub pin the pristine source
	// adjacency and the base substrate (the W channel never moves with
	// edges), so recovery can always rewind to sequence 0.
	log      *wal.Log
	met      engineMetrics
	srcAO    tensor.COO
	baseSub  tmark.Substrate
	dedup    map[string]*ApplyResult
	dedupQ   []string
	walEvery int
}

// NewEngine builds the live-model engine for a dataset-backed graph.
// The base version (Seq 0) is compiled and, when a registry is given,
// its blob written (but not tagged — the floating name only moves when
// a batch actually applies). The graph is aliased and must not be
// mutated by the caller afterwards; deltas are the only mutation path.
// With WithWAL, construction then restores from the log's snapshot and
// replays its live records, so a restarted process resumes exactly
// where the crashed one's last durable append left off.
func NewEngine(name string, g *hin.Graph, cfg tmark.Config, reg *artifact.Registry, opts ...EngineOption) (*Engine, error) {
	m, a, err := tmark.NewWithAdjacency(g, cfg)
	if err != nil {
		return nil, err
	}
	data, err := artifact.EncodeModel(g, cfg, m.Substrate())
	if err != nil {
		return nil, err
	}
	hash, err := sealBlob(reg, data)
	if err != nil {
		return nil, fmt.Errorf("stream: sealing base version: %w", err)
	}
	ao := a.COOView()
	e := &Engine{
		name:     name,
		g:        g,
		cfg:      cfg,
		reg:      reg,
		ao:       ao,
		srcAO:    ao,
		baseSub:  m.Substrate(),
		dedup:    map[string]*ApplyResult{},
		walEvery: DefaultWALCheckpointEvery,
	}
	for _, opt := range opts {
		opt(e)
	}
	// Nothing else can reach the engine yet, so no lock is needed.
	e.commitLocked(&Version{Seq: 0, Hash: hash, Model: m})
	if e.log != nil {
		if err := e.replayLog(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Name returns the engine's model name.
func (e *Engine) Name() string { return e.name }

// Config returns the engine's hyper-parameter set.
func (e *Engine) Config() tmark.Config { return e.cfg }

// Current returns the engine's committed version. It takes no lock, so
// a reader never waits behind an apply in flight: it gets the previous
// version until the apply commits, and the new one from then on.
func (e *Engine) Current() *Version { return e.pub.Load() }

// commitLocked makes v the committed version, for the writer and for
// Current's readers alike. Callers hold e.mu.
func (e *Engine) commitLocked(v *Version) {
	e.cur = v
	e.pub.Store(v)
}

// sealBlob writes an encoded version into reg and returns its content
// hash: the one Put computed over the bytes it wrote, so each version is
// hashed once. Without a registry it only hashes.
func sealBlob(reg *artifact.Registry, data []byte) (string, error) {
	if reg == nil {
		return artifact.Hash(data), nil
	}
	return reg.Put(data)
}

// Quarantined reports the poisoning fault, if any.
func (e *Engine) Quarantined() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.poisoned
}

// WALSize reports the attached log's live segment bytes, 0 without a
// log — the per-engine term of the tmarkd_wal_segment_bytes gauge.
func (e *Engine) WALSize() int64 {
	if e.log == nil {
		return 0
	}
	return e.log.Size()
}

// ApplyResult summarises one applied batch.
type ApplyResult struct {
	// Name is the engine's model name.
	Name string `json:"name"`
	// Seq is the new version's sequence number.
	Seq int `json:"seq"`
	// OldHash/NewHash are the content hashes before and after.
	OldHash string `json:"old_hash"`
	NewHash string `json:"new_hash"`
	// Deltas is the batch size; Changes the distinct adjacency
	// coordinates it resolved to.
	Deltas  int `json:"deltas"`
	Changes int `json:"changes"`
	// TouchedColumns/TouchedTubes count the O columns and R tubes the
	// batch touched. Normalisation is per column and per tube, so every
	// other run kept its previous bytes.
	TouchedColumns int `json:"touched_columns"`
	TouchedTubes   int `json:"touched_tubes"`
	// Sealed reports whether the version was written to a registry.
	Sealed bool `json:"sealed"`
	// Duplicate reports that the batch's idempotency key matched an
	// already-committed batch: nothing was re-applied and the original
	// sealed version's summary is returned.
	Duplicate bool `json:"duplicate,omitempty"`
}

// Apply validates and applies one delta batch without an idempotency
// key; see ApplyKeyed. The context is not consulted.
func (e *Engine) Apply(ctx context.Context, deltas []Delta) (*ApplyResult, error) {
	return e.ApplyKeyed(ctx, "", deltas)
}

// ApplyKeyed validates and applies one delta batch: merge the raw
// adjacency, build O and R from the merged adjacency (substrateAt, the
// same constructors as a from-scratch build of the mutated graph),
// assemble the new model sharing the base W channel, seal the version
// in the registry, and only then publish. It solves nothing — each
// answer is solved for its request on the version it reads — so the
// context is not consulted. A batch refused for its content is an
// ErrInvalidBatch. A failure before the final assignment leaves the
// engine on the previous version; a panic additionally quarantines the
// engine (ErrQuarantined), because a fault mid-ingest means the process
// can no longer prove its in-memory adjacency matches the sealed
// history — with a WAL attached, the next call re-proves it and heals.
//
// A non-empty key makes the batch idempotent: after the batch commits,
// a later ApplyKeyed carrying the same key returns the original sealed
// version's summary (Duplicate set) instead of re-applying — the
// contract that makes client retries safe. With a WAL attached the
// batch is logged durably before anything mutates, so an acknowledged
// batch survives a crash at any later point.
func (e *Engine) ApplyKeyed(_ context.Context, key string, deltas []Delta) (*ApplyResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.poisoned != nil {
		if err := e.recoverLocked(); err != nil {
			return nil, err
		}
	}
	return e.applyLocked(key, deltas, true)
}

// applyLocked is the transaction body shared by live applies (logIt)
// and WAL replay (the record is already durable). Callers hold e.mu.
func (e *Engine) applyLocked(key string, deltas []Delta, logIt bool) (ar *ApplyResult, err error) {
	if key != "" {
		if prev, ok := e.dedup[key]; ok {
			dup := *prev
			dup.Duplicate = true
			e.met.duplicates.Inc()
			return &dup, nil
		}
	}
	defer func() {
		if rec := recover(); rec != nil {
			e.poisoned = fmt.Errorf("ingest panic at seq %d: %v", e.cur.Seq+1, rec)
			ar, err = nil, fmt.Errorf("%w: %v", ErrQuarantined, e.poisoned)
		}
	}()
	if fault.Enabled() {
		if err := fault.Check(fault.StreamApply); err != nil {
			return nil, err
		}
	}

	eff, err := compose(e.g, e.ao, deltas)
	if err != nil {
		return nil, err
	}
	if logIt && e.log != nil {
		// The write-ahead point: the batch has passed validation and is
		// logged durably before any derived state is built. An append
		// failure is a clean rejection — nothing has moved. A crash
		// anywhere after this line is recoverable by replay.
		if fault.Enabled() {
			if ferr := fault.Check(fault.WALAppend); ferr != nil {
				return nil, fmt.Errorf("stream: wal append: %w", ferr)
			}
		}
		rec := wal.Record{Seq: uint64(e.cur.Seq + 1), Key: key, Deltas: toWALDeltas(deltas)}
		if aerr := e.log.Append(rec); aerr != nil {
			return nil, fmt.Errorf("stream: wal append: %w", aerr)
		}
		e.met.appends.Inc()
		if fault.Enabled() {
			fault.Fire(fault.WALAppend, rec.Seq)
		}
	}
	newAO, err := tensor.MergeKJI(e.ao, eff.kji)
	if err != nil {
		return nil, err
	}
	sub, err := e.substrateAt(newAO)
	if err != nil {
		return nil, err
	}
	model, err := tmark.Assemble(e.g, e.cfg, sub)
	if err != nil {
		return nil, err
	}
	if fault.Enabled() {
		fault.Fire(fault.StreamApply, e.cur.Seq+1, len(eff.kji))
	}

	data, err := artifact.EncodeModel(e.g, e.cfg, sub)
	if err != nil {
		return nil, err
	}
	hash, err := sealBlob(e.reg, data)
	if err != nil {
		return nil, fmt.Errorf("stream: sealing version %d: %w", e.cur.Seq+1, err)
	}
	sealed := e.reg != nil
	if sealed {
		if fault.Enabled() {
			fault.Fire(fault.StreamSeal, hash)
		}
		if err := e.reg.Tag(e.name, hash); err != nil {
			return nil, fmt.Errorf("stream: tagging version %d: %w", e.cur.Seq+1, err)
		}
	}

	next := &Version{Seq: e.cur.Seq + 1, Hash: hash, Model: model}
	out := &ApplyResult{
		Name:           e.name,
		Seq:            next.Seq,
		OldHash:        e.cur.Hash,
		NewHash:        hash,
		Deltas:         len(deltas),
		Changes:        len(eff.kji),
		TouchedColumns: eff.touchedCols,
		TouchedTubes:   eff.touchedTubes,
		Sealed:         sealed,
	}
	// The transaction commits here: every fallible step is behind us.
	// Readers move to the new version at this point, not at the Tag above.
	e.ao = newAO
	e.commitLocked(next)
	if key != "" {
		e.rememberLocked(key, out)
	}
	e.maybeCheckpointLocked(sealed)
	return out, nil
}

// substrateAt builds the substrate of the version whose raw adjacency
// is ao: O (eq. 1), R (eq. 2) and the irreducibility flag, by the
// constructors tmark.New runs for the base version, over one tensor
// wrapped around ao. Features never move with edges, so every version
// shares the base version's W channel. FromKJI checks ao before
// anything is built from it: a WAL snapshot arrives here from disk.
func (e *Engine) substrateAt(ao tensor.COO) (tmark.Substrate, error) {
	a, err := tensor.FromKJI(ao)
	if err != nil {
		return tmark.Substrate{}, fmt.Errorf("stream: raw adjacency: %w", err)
	}
	return tmark.Substrate{
		O:           tensor.NewNodeTransition(a),
		R:           tensor.NewRelationTransition(a),
		WDense:      e.baseSub.WDense,
		WCSR:        e.baseSub.WCSR,
		Irreducible: a.Irreducible(),
	}, nil
}

// rememberLocked records a committed batch's key in the dedup window of
// the last DedupWindow keys.
func (e *Engine) rememberLocked(key string, res *ApplyResult) {
	if _, ok := e.dedup[key]; ok {
		return
	}
	e.dedup[key] = res
	e.dedupQ = append(e.dedupQ, key)
	for len(e.dedupQ) > DedupWindow {
		delete(e.dedup, e.dedupQ[0])
		e.dedupQ = e.dedupQ[1:]
	}
}

// maybeCheckpointLocked snapshots the raw adjacency into the log once
// enough batches have committed since the last snapshot, letting the
// log prune its covered segments. Only sealed versions checkpoint —
// pruning is safe exactly when the state at the snapshot point is
// durable beyond the log itself. A checkpoint failure is deliberately
// not an apply failure: the batch committed and its record is durable;
// the log just stays longer.
func (e *Engine) maybeCheckpointLocked(sealed bool) {
	if e.log == nil || !sealed {
		return
	}
	if uint64(e.cur.Seq) < e.log.SnapshotSeq()+uint64(e.walEvery) {
		return
	}
	_ = e.log.Checkpoint(wal.Snapshot{
		Seq: uint64(e.cur.Seq), Hash: e.cur.Hash,
		N: e.ao.N, M: e.ao.M, I: e.ao.I, J: e.ao.J, K: e.ao.K, V: e.ao.V,
	})
}
