package tmark

// Checkpoint/resume for the lockstep engine. Every K iterations the
// engine snapshots its entire working set — the interleaved
// x/z blocks, the live-column map, the per-class verdicts, iteration
// counters, restart vectors and residual traces — into a Checkpoint,
// and a later run started with ResumeFrom continues bitwise identically
// to the uninterrupted run: the loop restarts at the snapshot's
// iteration with the exact floats the original run held, and every
// kernel is deterministic for a fixed worker count.
//
// Binary format (little-endian), versioned and checksummed:
//
//	magic   "TMARKCP1"                            8 bytes
//	kind    uint8      1 = class run, 2 = column run
//	cfgHash uint64     FNV-1a over the arithmetic Config fields
//	n, m, q uint32     dimensions (q = class or query count)
//	iter    uint32     completed lockstep iterations
//	b       uint32     active (non-retired) column count
//	classOf b × uint32 active column -> class/query index, ascending
//	state   q × uint8  0 = active, 1 = converged, 2 = stopped
//	iters   q × uint32 per-class iteration counts
//	seeds   q × uint32 per-class restart-set sizes
//	x       n·b float64  active node block, stride b
//	z       m·b float64  active link block, stride b
//	l       q·n float64  restart vectors, row-major
//	outs    per retired class: n + m float64 (final x̄, z̄)
//	trace   Σ iters[c] float64, class-major
//	crc     uint64     crc64/ECMA over everything above
//
// The trace lengths are derivable (len(trace[c]) == iters[c]) so they
// are not stored. The config hash deliberately excludes Workers: the
// worker count is a deployment knob, not part of the problem, so a
// checkpoint written on an 8-core box resumes on a 4-core one — the
// result then differs from the original by shard-reduction rounding
// exactly as any fresh run with a different Workers value would.
// DecodeCheckpoint is strict: it validates the checksum, every length
// and every structural invariant, never panics on hostile input, and
// never allocates more than a small multiple of the input size.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// Checkpoint kinds: which engine caller wrote the snapshot.
const (
	ckKindClasses uint8 = 1 // RunContext / RunWarmContext class run
	ckKindColumns uint8 = 2 // SolveColumns column run
)

var ckMagic = [8]byte{'T', 'M', 'A', 'R', 'K', 'C', 'P', '1'}

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrCheckpointMismatch reports a checkpoint that decoded cleanly but
// does not belong to the model or call it was offered to.
var ErrCheckpointMismatch = errors.New("tmark: checkpoint does not match model")

// Checkpoint is one recoverable snapshot of a lockstep engine solve.
// All slices are owned by the checkpoint (deep copies of the solver
// state), so a snapshot stays valid while the run continues.
type Checkpoint struct {
	ConfigHash uint64
	Kind       uint8
	N, M, Q    int // dimensions; Q counts classes (kind 1) or queries (kind 2)
	Iter       int // completed lockstep iterations
	B          int // active columns at snapshot time

	ClassOf []int   // len B: active column -> class/query index, ascending
	State   []uint8 // len Q: 0 active, 1 retired-converged, 2 retired-stopped
	Iters   []int   // len Q
	Seeds   []int   // len Q
	X, Z    []float64
	L       []float64   // Q×N row-major restart vectors
	XOut    [][]float64 // len Q; non-nil exactly when State[c] != 0
	ZOut    [][]float64
	Trace   [][]float64 // len Q; len(Trace[c]) == Iters[c]
}

// checkpointHash folds the arithmetic-relevant Config fields into the
// identity a checkpoint is validated against. Workers is excluded (see
// the package comment on resuming across worker counts).
func (c Config) checkpointHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(math.Float64bits(c.Alpha))
	put(math.Float64bits(c.Gamma))
	put(math.Float64bits(c.Lambda))
	put(math.Float64bits(c.Epsilon))
	put(uint64(c.MaxIterations))
	if c.ICAUpdate {
		put(1)
	} else {
		put(0)
	}
	put(uint64(c.FeatureTopK))
	return h.Sum64()
}

// ConfigHash returns the identity the model's checkpoints carry; two
// models agree on it exactly when their arithmetic-relevant parameters
// (everything but Workers) agree.
func (m *Model) ConfigHash() uint64 { return m.cfg.checkpointHash() }

// Encode serialises the checkpoint into the versioned, checksummed
// binary format.
func (cp *Checkpoint) Encode() []byte {
	size := 8 + 1 + 8 + 5*4 + len(cp.ClassOf)*4 + cp.Q + 2*cp.Q*4 +
		(len(cp.X)+len(cp.Z)+len(cp.L))*8 + 8
	for c := 0; c < cp.Q; c++ {
		if cp.State[c] != 0 {
			size += (cp.N + cp.M) * 8
		}
		size += len(cp.Trace[c]) * 8
	}
	buf := make([]byte, 0, size)
	buf = append(buf, ckMagic[:]...)
	buf = append(buf, cp.Kind)
	buf = binary.LittleEndian.AppendUint64(buf, cp.ConfigHash)
	for _, v := range []int{cp.N, cp.M, cp.Q, cp.Iter, cp.B} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range cp.ClassOf {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = append(buf, cp.State...)
	for _, v := range cp.Iters {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range cp.Seeds {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = appendFloats(buf, cp.X)
	buf = appendFloats(buf, cp.Z)
	buf = appendFloats(buf, cp.L)
	for c := 0; c < cp.Q; c++ {
		if cp.State[c] != 0 {
			buf = appendFloats(buf, cp.XOut[c])
			buf = appendFloats(buf, cp.ZOut[c])
		}
	}
	for c := 0; c < cp.Q; c++ {
		buf = appendFloats(buf, cp.Trace[c])
	}
	buf = binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
	return buf
}

func appendFloats(buf []byte, fs []float64) []byte {
	for _, f := range fs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

// ckReader is the strict sequential decoder state: every read checks
// the remaining length first, so a hostile length field can never drive
// an allocation past the input size.
type ckReader struct {
	data []byte
	off  int
}

func (r *ckReader) remaining() int { return len(r.data) - r.off }

func (r *ckReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("tmark: checkpoint truncated at offset %d (need %d, have %d)", r.off, n, r.remaining())
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *ckReader) u32() (int, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(b)), nil
}

func (r *ckReader) u32s(n int) ([]int, error) {
	b, err := r.bytes(4 * n)
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

func (r *ckReader) floats(n int) ([]float64, error) {
	b, err := r.bytes(8 * n)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

// DecodeCheckpoint parses and validates a serialised checkpoint. It
// returns an error — never panics, never returns partially-filled
// state — on truncation, checksum mismatch, unknown version, or any
// violated structural invariant.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < 8+1+8+5*4+8 {
		return nil, fmt.Errorf("tmark: checkpoint too short (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	if got, want := binary.LittleEndian.Uint64(tail), crc64.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("tmark: checkpoint checksum mismatch (stored %016x, computed %016x)", got, want)
	}
	r := &ckReader{data: body}
	magic, _ := r.bytes(8)
	if [8]byte(magic) != ckMagic {
		return nil, fmt.Errorf("tmark: not a checkpoint (magic %q, want %q)", magic, ckMagic[:])
	}
	kindB, _ := r.bytes(1)
	cp := &Checkpoint{Kind: kindB[0]}
	if cp.Kind != ckKindClasses && cp.Kind != ckKindColumns {
		return nil, fmt.Errorf("tmark: checkpoint kind %d unknown", cp.Kind)
	}
	hashB, _ := r.bytes(8)
	cp.ConfigHash = binary.LittleEndian.Uint64(hashB)
	var err error
	if cp.N, err = r.u32(); err != nil {
		return nil, err
	}
	if cp.M, err = r.u32(); err != nil {
		return nil, err
	}
	if cp.Q, err = r.u32(); err != nil {
		return nil, err
	}
	if cp.Iter, err = r.u32(); err != nil {
		return nil, err
	}
	if cp.B, err = r.u32(); err != nil {
		return nil, err
	}
	if cp.Q < 1 || cp.B < 0 || cp.B > cp.Q || cp.N < 1 {
		return nil, fmt.Errorf("tmark: checkpoint dimensions n=%d m=%d q=%d b=%d invalid", cp.N, cp.M, cp.Q, cp.B)
	}
	if cp.ClassOf, err = r.u32s(cp.B); err != nil {
		return nil, err
	}
	stateB, err := r.bytes(cp.Q)
	if err != nil {
		return nil, err
	}
	cp.State = append([]uint8(nil), stateB...)
	if cp.Iters, err = r.u32s(cp.Q); err != nil {
		return nil, err
	}
	if cp.Seeds, err = r.u32s(cp.Q); err != nil {
		return nil, err
	}

	// Structural invariants before the large float sections: the active
	// columns must list exactly the classes with state 0, ascending.
	prev := -1
	for _, c := range cp.ClassOf {
		if c <= prev || c >= cp.Q {
			return nil, fmt.Errorf("tmark: checkpoint active column list %v malformed", cp.ClassOf)
		}
		if cp.State[c] != 0 {
			return nil, fmt.Errorf("tmark: checkpoint lists retired class %d as active", c)
		}
		prev = c
	}
	activeCount := 0
	for c, s := range cp.State {
		switch s {
		case 0:
			activeCount++
		case 1, 2:
		default:
			return nil, fmt.Errorf("tmark: checkpoint class %d has unknown state %d", c, s)
		}
		if cp.Iters[c] > cp.Iter {
			return nil, fmt.Errorf("tmark: checkpoint class %d iterations %d exceed run iteration %d", c, cp.Iters[c], cp.Iter)
		}
	}
	if activeCount != cp.B {
		return nil, fmt.Errorf("tmark: checkpoint has %d active classes but %d active columns", activeCount, cp.B)
	}

	if cp.X, err = r.floats(cp.N * cp.B); err != nil {
		return nil, err
	}
	if cp.Z, err = r.floats(cp.M * cp.B); err != nil {
		return nil, err
	}
	if cp.L, err = r.floats(cp.Q * cp.N); err != nil {
		return nil, err
	}
	cp.XOut = make([][]float64, cp.Q)
	cp.ZOut = make([][]float64, cp.Q)
	for c := 0; c < cp.Q; c++ {
		if cp.State[c] == 0 {
			continue
		}
		if cp.XOut[c], err = r.floats(cp.N); err != nil {
			return nil, err
		}
		if cp.ZOut[c], err = r.floats(cp.M); err != nil {
			return nil, err
		}
	}
	cp.Trace = make([][]float64, cp.Q)
	for c := 0; c < cp.Q; c++ {
		if cp.Trace[c], err = r.floats(cp.Iters[c]); err != nil {
			return nil, err
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("tmark: checkpoint has %d trailing bytes", r.remaining())
	}
	return cp, nil
}

// ValidateCheckpoint reports whether the checkpoint can resume a class
// run on this model: matching kind, dimensions and config hash. Column
// checkpoints are validated by SolveColumns against the resubmitted
// query set instead.
func (m *Model) ValidateCheckpoint(cp *Checkpoint) error {
	return m.validateCheckpoint(cp, ckKindClasses, m.graph.Q())
}

// validateCheckpoint reports whether the checkpoint can resume an engine
// run of the given kind over q columns on this model: q classes for a
// class run, or q resubmitted queries for a column run — the queries
// must be resubmitted unchanged, since the checkpoint stores their
// restart vectors and verdicts by position.
func (m *Model) validateCheckpoint(cp *Checkpoint, kind uint8, q int) error {
	if cp == nil {
		return fmt.Errorf("%w: nil checkpoint", ErrCheckpointMismatch)
	}
	if cp.Kind != kind {
		return fmt.Errorf("%w: kind %d, want %d", ErrCheckpointMismatch, cp.Kind, kind)
	}
	if cp.N != m.graph.N() || cp.M != m.graph.M() || cp.Q != q {
		return fmt.Errorf("%w: checkpoint %dx%dx%d, want %dx%dx%d",
			ErrCheckpointMismatch, cp.N, cp.M, cp.Q, m.graph.N(), m.graph.M(), q)
	}
	if cp.ConfigHash != m.cfg.checkpointHash() {
		return fmt.Errorf("%w: config hash %016x, model %016x",
			ErrCheckpointMismatch, cp.ConfigHash, m.cfg.checkpointHash())
	}
	if cp.Iter >= m.cfg.MaxIterations && cp.B > 0 {
		return fmt.Errorf("%w: checkpoint already at the iteration cap (%d)", ErrCheckpointMismatch, cp.Iter)
	}
	return nil
}

// SaveFile writes the checkpoint atomically: the encoding lands in a
// temporary file in the target directory and is renamed into place, so
// a crash mid-write never leaves a truncated checkpoint at path.
func (cp *Checkpoint) SaveFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmark-ckpt-*")
	if err != nil {
		return fmt.Errorf("tmark: checkpoint save: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(cp.Encode())
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("tmark: checkpoint save: %w", werr)
	}
	return nil
}

// LoadCheckpointFile reads and decodes a checkpoint written by SaveFile
// or a DirSink.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tmark: checkpoint load: %w", err)
	}
	return DecodeCheckpoint(data)
}

// CheckpointSink receives snapshots from a running solve. Save is
// called on the solver goroutine with a fully-owned checkpoint (the
// sink may retain it); a slow sink therefore stalls the solve, so
// sinks that do real I/O should stay cheap or hand off internally.
type CheckpointSink interface {
	Save(cp *Checkpoint) error
}

// DirSink persists each snapshot atomically to Name (default
// "run.ckpt") inside Dir, always keeping only the latest checkpoint.
type DirSink struct {
	Dir  string
	Name string
}

// Path returns the file the sink writes.
func (d DirSink) Path() string {
	name := d.Name
	if name == "" {
		name = "run.ckpt"
	}
	return filepath.Join(d.Dir, name)
}

// Save implements CheckpointSink.
func (d DirSink) Save(cp *Checkpoint) error { return cp.SaveFile(d.Path()) }

// MemorySink retains the most recent checkpoint in memory; tests and
// the in-process retry path use it.
type MemorySink struct {
	mu   sync.Mutex
	last *Checkpoint
}

// Save implements CheckpointSink.
func (s *MemorySink) Save(cp *Checkpoint) error {
	s.mu.Lock()
	s.last = cp
	s.mu.Unlock()
	return nil
}

// Last returns the most recently saved checkpoint, or nil.
func (s *MemorySink) Last() *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}
