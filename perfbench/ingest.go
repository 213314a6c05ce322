package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"tmark/internal/artifact"
	"tmark/internal/dataset"
	"tmark/internal/hin"
	"tmark/internal/obs"
	"tmark/internal/serve"
	"tmark/internal/stream"
	"tmark/internal/tmark"
	"tmark/internal/wal"
)

// ingest-live: one writer posts a fixed number of /v1/ingest batches
// to a serve.Server whose artifact registry and write-ahead log live on
// the checkout's filesystem (fsync is part of the cost), while one
// reader loops /v1/classify on the floating model name until the writer
// is done.
const (
	ingestAuthorsPerArea = 500
	ingestModel          = "dblp"
	deltasPerBatch       = 32
	// batchesPerSecond turns --seconds into the batch count. The count
	// must not depend on the measured speed: every version the reader
	// touches stays mapped, so rss_peak_mb grows with the number of
	// versions, and a count set by speed would charge a faster ingest
	// with more memory.
	batchesPerSecond = 5
	readerQueries    = 64
	// freeSpaceFloorMB is the free space ingest-live needs before it
	// starts: two registries of ≈3 MB per sealed version (the measured
	// one and the replay one) plus logs, with room to spare.
	freeSpaceFloorMB = 2048
)

// edgeKey addresses one adjacency coordinate pair: an undirected
// relation's edge is keyed by its ordered endpoints, so both
// orientations (and the mirrored tensor entry) share one key, exactly
// as a delta addresses them.
type edgeKey struct{ rel, a, b int }

// refGraph is the offline model of a mutated graph: the effective
// weight of every live coordinate, in first-touch order. Because the
// tensor sums duplicate coordinates in insertion order, folding edges
// and deltas left to right here lands on the same float64 values the
// engine holds.
type refGraph struct {
	base  *hin.Graph
	w     map[edgeKey]float64
	order []edgeKey
	live  []edgeKey       // live keys, for uniform picks
	pos   map[edgeKey]int // index of a key in live
}

func newRefGraph(g *hin.Graph) *refGraph {
	r := &refGraph{base: g, w: map[edgeKey]float64{}, pos: map[edgeKey]int{}}
	for k, rel := range g.Relations {
		for _, e := range rel.Edges {
			r.apply(stream.Delta{Op: stream.OpAdd, From: e.From, To: e.To, Relation: k, Weight: e.Weight})
		}
	}
	return r
}

func (r *refGraph) key(d stream.Delta) edgeKey {
	a, b := d.From, d.To
	if !r.base.Relations[d.Relation].Directed && a > b {
		a, b = b, a
	}
	return edgeKey{d.Relation, a, b}
}

func (r *refGraph) apply(d stream.Delta) {
	k := r.key(d)
	switch d.Op {
	case stream.OpAdd:
		if _, ok := r.w[k]; !ok {
			r.order = append(r.order, k)
			r.pos[k] = len(r.live)
			r.live = append(r.live, k)
		}
		r.w[k] += d.Weight
	case stream.OpUpdate:
		r.w[k] = d.Weight
	case stream.OpRemove:
		delete(r.w, k)
		i := r.pos[k]
		last := r.live[len(r.live)-1]
		r.live[i], r.pos[last] = last, i
		r.live = r.live[:len(r.live)-1]
		delete(r.pos, k)
	}
}

// build rebuilds the mutated graph with one edge per live coordinate
// pair, sharing the base graph's nodes, labels and relation types.
func (r *refGraph) build() *hin.Graph {
	g := &hin.Graph{Nodes: r.base.Nodes, Classes: r.base.Classes}
	for _, rel := range r.base.Relations {
		g.Relations = append(g.Relations, hin.Relation{Name: rel.Name, Directed: rel.Directed})
	}
	seen := map[edgeKey]bool{}
	for _, k := range r.order {
		w, ok := r.w[k]
		if seen[k] || !ok {
			continue // removed, or re-added after a removal (listed twice)
		}
		seen[k] = true
		g.AddWeightedEdge(k.rel, k.a, k.b, w)
	}
	return g
}

// genBatches draws count batches of deltasPerBatch deltas against the
// evolving graph: 70 % adds of a random edge, 15 % updates and 15 %
// removals of an edge that exists at that point.
func genBatches(rng *rand.Rand, g *hin.Graph, count int) [][]stream.Delta {
	ref := newRefGraph(g)
	n, m := g.N(), g.M()
	out := make([][]stream.Delta, count)
	for b := range out {
		batch := make([]stream.Delta, 0, deltasPerBatch)
		for len(batch) < deltasPerBatch {
			var d stream.Delta
			switch r := rng.Float64(); {
			case r < 0.7 || len(ref.live) == 0:
				from, to := rng.Intn(n), rng.Intn(n-1)
				if to >= from {
					to++
				}
				d = stream.Delta{Op: stream.OpAdd, From: from, To: to, Relation: rng.Intn(m), Weight: 0.1 + rng.Float64()}
			case r < 0.85:
				k := ref.live[rng.Intn(len(ref.live))]
				d = stream.Delta{Op: stream.OpUpdate, From: k.a, To: k.b, Relation: k.rel, Weight: 0.1 + rng.Float64()}
			default:
				k := ref.live[rng.Intn(len(ref.live))]
				d = stream.Delta{Op: stream.OpRemove, From: k.a, To: k.b, Relation: k.rel}
			}
			ref.apply(d)
			batch = append(batch, d)
		}
		out[b] = batch
	}
	return out
}

// checkIngest vets one /v1/ingest answer: a 200 that sealed the next
// version in sequence, on top of the previous one, and was not a
// duplicate.
func checkIngest(status int, body []byte, wantSeq int, prevHash string) (*serve.IngestResponse, error) {
	if status != http.StatusOK {
		if len(body) > 200 {
			body = body[:200]
		}
		return nil, fmt.Errorf("ingest: status %d: %s", status, body)
	}
	var r serve.IngestResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("ingest: decode response: %w", err)
	}
	switch {
	case r.Duplicate:
		return &r, fmt.Errorf("ingest: batch %d answered as a duplicate", wantSeq)
	case r.Seq != wantSeq:
		return &r, fmt.Errorf("ingest: sealed seq %d, want %d", r.Seq, wantSeq)
	case prevHash != "" && r.OldHash != prevHash:
		return &r, fmt.Errorf("ingest: seq %d built on %s, previous version was %s", r.Seq, r.OldHash, prevHash)
	case !r.Sealed:
		return &r, fmt.Errorf("ingest: seq %d not sealed", r.Seq)
	}
	return &r, nil
}

type ingestWorkload struct {
	root    string // the checkout: run directories go under its .bench_build
	g       *hin.Graph
	cfg     tmark.Config
	deltas  [][]stream.Delta
	bodies  [][]byte
	readers []classifyQuery

	dir   string // the live instance's registry and log root
	srv   *serve.Server
	reg   *obs.Registry
	first *serve.IngestResponse // the set-up batch
	rec   *ingestRecord
}

// ingestRecord keeps what the checks and replays need from a phase.
type ingestRecord struct {
	answers  []*serve.IngestResponse // per batch, the set-up batch first
	raw      [][]byte                // the first reader responses
	counters serveCounters
	blobs    int
}

// freshPerPhase marks ingest-live as needing a new instance (fresh
// registry and log) for every measured phase: a phase is a fixed
// sequence of batches from the base graph.
func (w *ingestWorkload) freshPerPhase() {}

func (w *ingestWorkload) prepare(seed int64, seconds int) error {
	// A run that was killed leaves its directories behind; runs in one
	// checkout are sequential, so any that exist now are stale.
	stale, _ := filepath.Glob(filepath.Join(w.root, ".bench_build", "*-run-*"))
	for _, dir := range stale {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	free, err := freeMB(w.root)
	if err != nil {
		return err
	}
	if free < freeSpaceFloorMB {
		return fmt.Errorf("refusing to start ingest-live: %.0f MB free on the checkout's filesystem, below the %d MB floor", free, freeSpaceFloorMB)
	}
	dc := dataset.DefaultDBLPConfig(networkSeed)
	dc.AuthorsPerArea = ingestAuthorsPerArea
	w.g = dataset.DBLP(dc)
	w.cfg = benchConfig()
	rng := rand.New(rand.NewSource(seed))
	w.deltas = genBatches(rng, w.g, batchesPerSecond*seconds)
	w.bodies = make([][]byte, len(w.deltas))
	for i, d := range w.deltas {
		if w.bodies[i], err = json.Marshal(serve.IngestRequest{Deltas: d}); err != nil {
			return err
		}
	}
	w.readers = genQueries(rng, readerQueries, len(dataset.DBLPAreas), ingestAuthorsPerArea, false, nil)
	return nil
}

func idempotencyKey(batch int) map[string]string {
	return map[string]string{"Idempotency-Key": "perfbench-batch-" + strconv.Itoa(batch)}
}

// setup times a fresh server over an empty registry and log until its
// first classify and its first ingest batch (which creates the ingest
// engine) are both answered.
func (w *ingestWorkload) setup() (time.Duration, error) {
	w.close()
	base := filepath.Join(w.root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(base, "ingest-run-")
	if err != nil {
		return 0, err
	}
	w.dir = dir
	reg := obs.NewRegistry()
	start := time.Now()
	srv, err := serve.New(serve.Options{
		Datasets: map[string]*hin.Graph{ingestModel: w.g},
		ModelDir: filepath.Join(dir, "models"),
		WALDir:   filepath.Join(dir, "wal"),
		Config:   w.cfg,
		Registry: reg,
	})
	if err != nil {
		return 0, err
	}
	w.srv, w.reg = srv, reg
	h := srv.Handler()
	status, body := post(h, "/v1/classify", w.readers[0].body, nil)
	if _, err := checkClassify(status, body, "exact"); err != nil {
		return 0, err
	}
	status, body = post(h, "/v1/ingest", w.bodies[0], idempotencyKey(0))
	d := time.Since(start)
	if w.first, err = checkIngest(status, body, 1, ""); err != nil {
		return 0, err
	}
	return d, nil
}

func (w *ingestWorkload) measure(_ int, tr *tracer) (*phase, error) {
	h := w.srv.Handler()
	before := readServeCounters(w.reg)
	rec := &ingestRecord{answers: []*serve.IngestResponse{w.first}, raw: make([][]byte, 0, recordedQueries)}
	p := &phase{reads: &opLog{}}
	var done atomic.Bool
	readerDone := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(readerDone)
		for i := 0; !done.Load(); i++ {
			q := w.readers[i%len(w.readers)]
			var status int
			var body []byte
			at := time.Since(start)
			d := tr.do("serve.classify", 0, int64(i), func() { status, body = post(h, "/v1/classify", q.body, nil) })
			_, err := checkClassify(status, body, "exact")
			p.reads.add(at, d, err)
			if len(rec.raw) < cap(rec.raw) {
				if err != nil {
					body = nil // codecReplay skips a failed read
				}
				rec.raw = append(rec.raw, body)
			}
		}
	}()
	prev := w.first.NewHash
	for b := 1; b < len(w.bodies); b++ {
		var status int
		var body []byte
		at := time.Since(start)
		d := tr.do("serve.ingest", 0, int64(b), func() { status, body = post(h, "/v1/ingest", w.bodies[b], idempotencyKey(b)) })
		ans, err := checkIngest(status, body, b+1, prev)
		p.ops.add(at, d, err)
		rec.answers = append(rec.answers, ans)
		if ans != nil {
			prev = ans.NewHash
		}
	}
	p.wall = time.Since(start)
	done.Store(true)
	<-readerDone
	rec.counters = readServeCounters(w.reg).since(before)
	var err error
	if rec.blobs, err = mappedBlobs(); err != nil {
		return nil, err
	}
	w.rec = rec
	p.info = map[string]any{
		"batches":          len(w.bodies),
		"deltas_per_batch": deltasPerBatch,
		"reader_queries":   p.reads.attempted(),
		"bytes_written_mb": float64(dirBytes(w.dir)) / (1 << 20),
		"mapped_blobs":     rec.blobs,
	}
	return p, nil
}

// check requires the content hash the server finally serves to equal
// artifact.Compile of the source graph with every batch applied
// offline — the served model is exactly the offline rebuild.
func (w *ingestWorkload) check(*phase) ([]opFailure, error) {
	status, body := post(w.srv.Handler(), "/v1/classify", w.readers[0].body, nil)
	ans, err := checkClassify(status, body, "exact")
	if err != nil {
		return []opFailure{{-1, fmt.Errorf("final read: %w", err)}}, nil
	}
	ref := newRefGraph(w.g)
	for _, batch := range w.deltas {
		for _, d := range batch {
			ref.apply(d)
		}
	}
	_, hash, err := artifact.Compile(ref.build(), w.cfg)
	if err != nil {
		return nil, err
	}
	var fails []opFailure
	if want := "sha256:" + hash; ans.ModelHash != want {
		fails = append(fails, opFailure{-1, fmt.Errorf("served %s after the last batch, offline rebuild is %s", ans.ModelHash, want)})
	}
	if last := w.rec.answers[len(w.rec.answers)-1]; last == nil || last.NewHash != ans.ModelHash {
		fails = append(fails, opFailure{-1, fmt.Errorf("served %s, the last batch sealed a different version", ans.ModelHash)})
	}
	return fails, nil
}

func (w *ingestWorkload) layers(p *phase, tr *tracer) (map[string]float64, error) {
	out := zeroLayers()
	c := w.rec.counters
	out["serve.batch_width_mean"] = c.widthMean()
	out["serve.batch_solve_ms"] = c.batchSolveMs()
	out["serve.rejected"] = float64(c.rejected)
	readers := make([]classifyQuery, len(w.rec.raw))
	for i := range readers {
		readers[i] = w.readers[i%len(w.readers)]
	}
	codecUs, err := codecReplay(readers, w.rec.raw, tr)
	if err != nil {
		return nil, err
	}
	out["serve.codec_us"] = codecUs
	out["serve.queue_wait_ms"] = meanFinite(p.reads.lat) - c.batchSolveMs() - codecUs/1000
	out["artifact.mapped_blobs"] = float64(w.rec.blobs)

	var changes, cols, tubes, warm []float64
	for _, a := range w.rec.answers {
		if a == nil {
			continue
		}
		changes = append(changes, float64(a.Changes))
		cols = append(cols, float64(a.TouchedColumns))
		tubes = append(tubes, float64(a.TouchedTubes))
		if a.Warm {
			warm = append(warm, float64(a.Iterations))
		}
	}
	out["stream.changes"], out["stream.touched_columns"] = mean(changes), mean(cols)
	out["stream.touched_tubes"], out["stream.warm_iterations"] = mean(tubes), mean(warm)

	rep, err := w.replay(tr)
	if err != nil {
		return nil, err
	}
	for k, v := range rep {
		out[k] = v
	}
	for k, v := range buildReplays(w.g, w.cfg, tr) {
		out[k] = v
	}
	return out, nil
}

// replay re-runs the phase's batches through the inner layers one at a
// time: stream.Engine.Apply with no registry and no log, the artifact
// encode and hash, Registry.Put, OpenRef plus Activate, wal.Log.Append,
// and the reader's query solved on every version.
func (w *ingestWorkload) replay(tr *tracer) (map[string]float64, error) {
	dir, err := os.MkdirTemp(filepath.Join(w.root, ".bench_build"), "replay-run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reg, err := artifact.OpenRegistry(filepath.Join(dir, "models"))
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	eng, err := stream.NewEngine(ingestModel, w.g, w.cfg, nil)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	query := w.readers[0].columnQuery()
	var apply, encode, put, activate, appendMs, blobMB []float64
	iters, solveWall := 0, time.Duration(0)
	for b, deltas := range w.deltas {
		op := int64(b)
		appendMs = append(appendMs, ms(tr.do("wal.append", 0, op, func() {
			err = log.Append(wal.Record{Seq: uint64(b + 1), Key: "perfbench-batch-" + strconv.Itoa(b), Deltas: walDeltas(deltas)})
		})))
		if err != nil {
			return nil, err
		}
		apply = append(apply, ms(tr.do("stream.apply", 0, op, func() { _, err = eng.Apply(ctx, deltas) })))
		if err != nil {
			return nil, err
		}
		v := eng.Current()
		var data []byte
		var hash string
		encode = append(encode, ms(tr.do("artifact.encode_hash", 0, op, func() {
			data, err = artifact.EncodeModel(w.g, w.cfg, v.Model.Substrate())
			hash = artifact.Hash(data)
		})))
		if err != nil {
			return nil, err
		}
		if hash != v.Hash {
			return nil, fmt.Errorf("replay: batch %d encodes to %s, the engine sealed %s", b, hash, v.Hash)
		}
		blobMB = append(blobMB, float64(len(data))/(1<<20))
		put = append(put, ms(tr.do("artifact.put", 0, op, func() { _, err = reg.Put(data) })))
		if err != nil {
			return nil, err
		}
		var a *artifact.Artifact
		activate = append(activate, ms(tr.do("artifact.activate", 0, op, func() {
			if a, _, err = reg.OpenRef(artifact.Ref{Hash: hash}); err == nil {
				_, err = a.Activate(w.cfg)
			}
		})))
		if err != nil {
			return nil, err
		}
		if err := a.Close(); err != nil {
			return nil, err
		}
		var col tmark.ColumnResult
		solveWall += tr.do("tmark.solve_column", 0, op, func() { col, err = v.Model.SolveColumn(ctx, query) })
		if err != nil {
			return nil, err
		}
		iters += col.Iterations
	}
	final := eng.Current().Model
	var def, one []float64
	for i := 0; i < 5; i++ {
		def = append(def, float64(tr.do("tmark.solve_column", 0, -1, func() { _, err = final.SolveColumn(ctx, query) })))
		one = append(one, float64(tr.do("tmark.solve_column_workers1", 0, -1, func() {
			_, err = final.SolveColumn(ctx, query, tmark.WithWorkers(1))
		})))
	}
	if err != nil {
		return nil, err
	}
	out := map[string]float64{
		"stream.apply_ms":         median(apply),
		"artifact.encode_hash_ms": median(encode),
		"artifact.put_ms":         median(put),
		"artifact.blob_mb":        median(blobMB),
		"artifact.activate_ms":    median(activate),
		"wal.append_ms":           median(appendMs),
		"tmark.iterations":        float64(iters) / float64(len(w.deltas)),
		"tmark.ms_per_iteration":  ms(solveWall) / float64(max(iters, 1)),
		"par.speedup_x":           median(one) / median(def),
	}
	for k, v := range kernelReplays(final.Substrate(), 1, tr) {
		out[k] = v
	}
	return out, nil
}

func walDeltas(deltas []stream.Delta) []wal.Delta {
	out := make([]wal.Delta, len(deltas))
	for i, d := range deltas {
		out[i] = wal.Delta{From: int32(d.From), To: int32(d.To), Relation: int32(d.Relation), Weight: d.Weight}
		switch d.Op {
		case stream.OpAdd:
			out[i].Op = wal.OpAdd
		case stream.OpUpdate:
			out[i].Op = wal.OpUpdate
		case stream.OpRemove:
			out[i].Op = wal.OpRemove
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// close drains the live server and removes its registry and log.
func (w *ingestWorkload) close() {
	if w.srv != nil {
		w.srv.Drain()
		w.srv = nil
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir) // best effort: a leftover run directory is ignored by git and by later runs
		w.dir = ""
	}
}
