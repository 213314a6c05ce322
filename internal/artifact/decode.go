package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"unsafe"

	"tmark/internal/hin"
	"tmark/internal/sparse"
	"tmark/internal/tensor"
	"tmark/internal/tmark"
	"tmark/internal/vec"
)

// ErrCorrupt wraps every decode failure: truncation, checksum mismatch,
// bad magic, or any violated structural invariant. Callers (the serve
// cache) treat it as "this artifact is unusable — fall back to a
// rebuild", never as a programming error.
var ErrCorrupt = errors.New("artifact: corrupt or truncated artifact")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Artifact is one decoded TMARKAR1 model artifact. The substrate's R
// and W arrays alias the artifact's bytes (O is copied into its row
// blocks), so every model assembled from it keeps those bytes reachable
// for as long as the model is; the garbage collector frees them after.
type Artifact struct {
	// N, M, Q are the node / relation / class dimensions.
	N, M, Q int
	// ConfigHash is the FNV-1a identity of BuiltConfig, as stored.
	ConfigHash uint64
	// BuiltConfig is the hyper-parameter set the artifact was compiled
	// with (Workers is a deployment knob and is never stored).
	BuiltConfig tmark.Config
	// Irreducible records whether the source tensor satisfied the
	// paper's irreducibility assumption.
	Irreducible bool

	graph *hin.Graph
	sub   tmark.Substrate
	wKind uint8

	data []byte
}

// Graph returns the artifact's reconstructed graph: dimensions, class /
// relation / node names and label seeds. Edges and features are not
// stored (the normalised tensors embody them), so the graph serves
// classification and ranking but cannot be re-normalised.
func (a *Artifact) Graph() *hin.Graph { return a.graph }

// Substrate returns the decoded model substrate. Its R and W arrays
// alias the artifact's bytes, and all of them are strictly read-only.
func (a *Artifact) Substrate() tmark.Substrate { return a.sub }

// Size returns the artifact's encoded length in bytes.
func (a *Artifact) Size() int { return len(a.data) }

// Close frees nothing and returns nil: the garbage collector owns the
// artifact's bytes, and models assembled from it stay valid. It is
// kept for callers that close what they open.
func (a *Artifact) Close() error { return nil }

// CompatibleWith reports whether the artifact's substrate can serve a
// model with config cfg. O and R are config-independent; the feature
// channel W depends only on whether Gamma is positive and on
// FeatureTopK, so any cfg whose feature-channel shape matches the
// stored one activates — per-request alpha/lambda/epsilon/iteration
// overrides reuse one artifact instead of minting rebuilds.
func (a *Artifact) CompatibleWith(cfg tmark.Config) error {
	if cfg.Gamma <= 0 {
		return nil // W unused
	}
	if a.wKind == wNone {
		return fmt.Errorf("artifact: config needs a feature channel (gamma=%v) but the artifact stores none", cfg.Gamma)
	}
	if cfg.FeatureTopK != a.BuiltConfig.FeatureTopK {
		return fmt.Errorf("artifact: config FeatureTopK=%d but the artifact's channel was built with %d",
			cfg.FeatureTopK, a.BuiltConfig.FeatureTopK)
	}
	return nil
}

// Activate assembles a servable model from the artifact under config
// cfg (use BuiltConfig to reproduce the compiled model exactly). It
// costs O(1): the substrate was built when the artifact was decoded,
// R and W as views of the artifact's bytes, O copied into its row
// blocks.
func (a *Artifact) Activate(cfg tmark.Config) (*tmark.Model, error) {
	if err := a.CompatibleWith(cfg); err != nil {
		return nil, err
	}
	return tmark.Assemble(a.graph, cfg, a.sub)
}

// section is one parsed table entry.
type section struct {
	kind uint32
	off  int
	len  int
}

// DecodeBytes parses and validates a serialised artifact. It is strict:
// truncation, checksum mismatch, misordered or overlapping sections,
// and every structural invariant violation error out — it never panics
// on hostile input and never allocates more than a small multiple of
// the input size (it is fuzzed: FuzzDecodeArtifact). The decoded R and
// W alias data wherever alignment allows; data must therefore stay
// immutable for the artifact's lifetime.
func DecodeBytes(data []byte) (*Artifact, error) {
	body, secs, seen, err := parseContainer(data)
	if err != nil {
		return nil, err
	}

	metaIdx, ok := seen[secMeta]
	if !ok {
		return nil, corrupt("no META section")
	}
	a := &Artifact{data: data}
	if err := a.parseMeta(body[secs[metaIdx].off : secs[metaIdx].off+secs[metaIdx].len]); err != nil {
		return nil, err
	}

	i32 := func(kind uint32) ([]int32, error) { return i32Section(body, secs, seen, kind) }
	f64 := func(kind uint32) ([]float64, error) { return f64Section(body, secs, seen, kind) }

	oRaw := tensor.NodeRaw{N: a.N, M: a.M}
	if oRaw.I, err = i32(secOI); err != nil {
		return nil, err
	}
	if oRaw.J, err = i32(secOJ); err != nil {
		return nil, err
	}
	if oRaw.K, err = i32(secOK); err != nil {
		return nil, err
	}
	if oRaw.P, err = f64(secOP); err != nil {
		return nil, err
	}
	if oRaw.ColJ, err = i32(secOColJ); err != nil {
		return nil, err
	}
	if oRaw.ColK, err = i32(secOColK); err != nil {
		return nil, err
	}
	rRaw := tensor.RelationRaw{N: a.N, M: a.M}
	if rRaw.I, err = i32(secRI); err != nil {
		return nil, err
	}
	if rRaw.J, err = i32(secRJ); err != nil {
		return nil, err
	}
	if rRaw.K, err = i32(secRK); err != nil {
		return nil, err
	}
	if rRaw.P, err = f64(secRP); err != nil {
		return nil, err
	}
	if rRaw.TubeI, err = i32(secRTubeI); err != nil {
		return nil, err
	}
	if rRaw.TubeJ, err = i32(secRTubeJ); err != nil {
		return nil, err
	}
	if rRaw.TubeStart, err = i32(secRTubeS); err != nil {
		return nil, err
	}
	if a.sub.O, err = tensor.NodeTransitionFromRaw(oRaw); err != nil {
		return nil, corrupt("%v", err)
	}
	if a.sub.R, err = tensor.RelationTransitionFromRaw(rRaw); err != nil {
		return nil, corrupt("%v", err)
	}
	a.sub.Irreducible = a.Irreducible

	switch a.wKind {
	case wNone:
		for _, k := range []uint32{secWDense, secWRowPtr, secWColIdx, secWVal} {
			if _, present := seen[k]; present {
				return nil, corrupt("META says no feature channel but section %d is present", k)
			}
		}
	case wDense:
		dense, err := f64(secWDense)
		if err != nil {
			return nil, err
		}
		if uint64(len(dense)) != uint64(a.N)*uint64(a.N) {
			return nil, corrupt("dense W has %d entries, want %d×%d", len(dense), a.N, a.N)
		}
		for _, v := range dense {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, corrupt("dense W holds a non-finite entry")
			}
		}
		a.sub.WDense = &vec.Matrix{Rows: a.N, Cols: a.N, Data: dense}
	case wCSR:
		wRaw := sparse.Raw{Rows: a.N, Cols: a.N}
		if wRaw.RowPtr, err = i32(secWRowPtr); err != nil {
			return nil, err
		}
		if wRaw.ColIdx, err = i32(secWColIdx); err != nil {
			return nil, err
		}
		if wRaw.Values, err = f64(secWVal); err != nil {
			return nil, err
		}
		for _, v := range wRaw.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, corrupt("CSR W holds a non-finite entry")
			}
		}
		if a.sub.WCSR, err = sparse.FromRaw(wRaw); err != nil {
			return nil, corrupt("%v", err)
		}
	default:
		return nil, corrupt("unknown W kind %d", a.wKind)
	}
	return a, nil
}

// parseContainer verifies the crc trailer, magic and section table —
// the container-level half of DecodeBytes.
func parseContainer(data []byte) (body []byte, secs []section, seen map[uint32]int, err error) {
	if len(data) < headerFixed+trailerLen {
		return nil, nil, nil, corrupt("%d bytes is shorter than the fixed header", len(data))
	}
	body, tail := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if got, want := binary.LittleEndian.Uint64(tail), crc64.Checksum(body, crcTable); got != want {
		return nil, nil, nil, corrupt("checksum mismatch (stored %016x, computed %016x)", got, want)
	}
	if [8]byte(data[:8]) != magic {
		return nil, nil, nil, corrupt("bad magic %q", data[:8])
	}
	count := int(binary.LittleEndian.Uint32(data[8:]))
	headerLen := headerFixed + count*sectionEntry
	if count < 1 || headerLen > len(body) {
		return nil, nil, nil, corrupt("section count %d does not fit in %d bytes", count, len(body))
	}
	secs = make([]section, count)
	seen = map[uint32]int{}
	prevEnd := align8(headerLen)
	for i := range secs {
		e := headerFixed + i*sectionEntry
		s := section{
			kind: binary.LittleEndian.Uint32(data[e:]),
			off:  int(int64(binary.LittleEndian.Uint64(data[e+8:]))),
			len:  int(int64(binary.LittleEndian.Uint64(data[e+16:]))),
		}
		if s.off < prevEnd || s.len < 0 || s.off%8 != 0 || s.len > len(body) || s.off > len(body)-s.len {
			return nil, nil, nil, corrupt("section %d (kind %d) range [%d,%d) invalid", i, s.kind, s.off, s.off+s.len)
		}
		if _, dup := seen[s.kind]; dup {
			return nil, nil, nil, corrupt("duplicate section kind %d", s.kind)
		}
		seen[s.kind] = i
		prevEnd = align8(s.off + s.len)
		secs[i] = s
	}
	return body, secs, seen, nil
}

// i32Section returns the typed view of one int32 section; a missing
// section is an empty slice (zero-entry arrays are simply not written).
func i32Section(body []byte, secs []section, seen map[uint32]int, kind uint32) ([]int32, error) {
	idx, ok := seen[kind]
	if !ok {
		return nil, nil
	}
	s := secs[idx]
	if s.len%4 != 0 {
		return nil, corrupt("section kind %d length %d not int32-aligned", kind, s.len)
	}
	return viewI32(body[s.off : s.off+s.len]), nil
}

// f64Section returns the typed view of one float64 section.
func f64Section(body []byte, secs []section, seen map[uint32]int, kind uint32) ([]float64, error) {
	idx, ok := seen[kind]
	if !ok {
		return nil, nil
	}
	s := secs[idx]
	if s.len%8 != 0 {
		return nil, corrupt("section kind %d length %d not float64-aligned", kind, s.len)
	}
	return viewF64(body[s.off : s.off+s.len]), nil
}

// nativeLittleEndian reports whether raw little-endian file bytes can
// be reinterpreted as host integers/floats without conversion.
var nativeLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// viewI32 reinterprets b as []int32 without copying when the host is
// little-endian and b is 4-byte aligned; otherwise it decodes a copy.
// Zero-copy views are read-only by contract: every model assembled from
// the artifact shares them.
func viewI32(b []byte) []int32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if nativeLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// viewF64 reinterprets b as []float64 (see viewI32).
func viewF64(b []byte) []float64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if nativeLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// metaReader is the strict bounded reader of the META stream.
type metaReader struct {
	data []byte
	off  int
}

func (r *metaReader) remaining() int { return len(r.data) - r.off }

func (r *metaReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, corrupt("META truncated at offset %d (need %d, have %d)", r.off, n, r.remaining())
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *metaReader) u8() (uint8, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *metaReader) u32() (int, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(b)), nil
}

func (r *metaReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *metaReader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *metaReader) bool() (bool, error) {
	v, err := r.u8()
	if err != nil {
		return false, err
	}
	if v > 1 {
		return false, corrupt("META bool %d at offset %d", v, r.off-1)
	}
	return v == 1, nil
}

func (r *metaReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// parseMeta fills the artifact's metadata from the META section. Every
// loop consumes at least one byte per element, so hostile counts fail
// on truncation before they can drive allocations past the input size.
func (a *Artifact) parseMeta(data []byte) error {
	r := &metaReader{data: data}
	ver, err := r.u32()
	if err != nil {
		return err
	}
	if ver != metaVersion {
		return corrupt("META version %d unknown", ver)
	}
	if a.N, err = r.u32(); err != nil {
		return err
	}
	if a.M, err = r.u32(); err != nil {
		return err
	}
	if a.Q, err = r.u32(); err != nil {
		return err
	}
	if a.N < 1 || a.Q < 1 {
		return corrupt("dimensions n=%d m=%d q=%d unusable", a.N, a.M, a.Q)
	}
	if a.ConfigHash, err = r.u64(); err != nil {
		return err
	}
	cfg := tmark.Config{}
	if cfg.Alpha, err = r.f64(); err != nil {
		return err
	}
	if cfg.Gamma, err = r.f64(); err != nil {
		return err
	}
	if cfg.Lambda, err = r.f64(); err != nil {
		return err
	}
	if cfg.Epsilon, err = r.f64(); err != nil {
		return err
	}
	if cfg.MaxIterations, err = r.u32(); err != nil {
		return err
	}
	if cfg.ICAUpdate, err = r.bool(); err != nil {
		return err
	}
	if cfg.FeatureTopK, err = r.u32(); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return corrupt("stored config invalid: %v", err)
	}
	if got := tmark.HashConfig(cfg); got != a.ConfigHash {
		return corrupt("config hash %016x disagrees with stored fields (%016x)", a.ConfigHash, got)
	}
	a.BuiltConfig = cfg
	if a.wKind, err = r.u8(); err != nil {
		return err
	}
	if a.Irreducible, err = r.bool(); err != nil {
		return err
	}

	g := &hin.Graph{}
	for c := 0; c < a.Q; c++ {
		name, err := r.str()
		if err != nil {
			return err
		}
		g.Classes = append(g.Classes, name)
	}
	for k := 0; k < a.M; k++ {
		name, err := r.str()
		if err != nil {
			return err
		}
		directed, err := r.bool()
		if err != nil {
			return err
		}
		g.Relations = append(g.Relations, hin.Relation{Name: name, Directed: directed})
	}
	for i := 0; i < a.N; i++ {
		name, err := r.str()
		if err != nil {
			return err
		}
		g.Nodes = append(g.Nodes, hin.Node{Name: name})
	}
	totalLabels, err := r.u32()
	if err != nil {
		return err
	}
	if totalLabels > r.remaining()/4 {
		return corrupt("label total %d exceeds remaining META", totalLabels)
	}
	labelVals := make([]int, 0, totalLabels)
	read := 0
	for i := 0; i < a.N; i++ {
		count, err := r.u32()
		if err != nil {
			return err
		}
		if count > totalLabels-read {
			return corrupt("node %d claims %d labels with %d left of the declared %d", i, count, totalLabels-read, totalLabels)
		}
		prev := -1
		for l := 0; l < count; l++ {
			c, err := r.u32()
			if err != nil {
				return err
			}
			if c <= prev || c >= a.Q {
				return corrupt("node %d label %d out of order or range %d", i, c, a.Q)
			}
			prev = c
			labelVals = append(labelVals, c)
		}
		read += count
		// Slice into the flat backing so n small label sets cost one
		// allocation, not n.
		g.Nodes[i].Labels = labelVals[len(labelVals)-count : len(labelVals) : len(labelVals)]
		if count == 0 {
			g.Nodes[i].Labels = nil
		}
	}
	if read != totalLabels {
		return corrupt("declared %d labels, found %d", totalLabels, read)
	}
	if r.remaining() != 0 {
		return corrupt("META has %d trailing bytes", r.remaining())
	}
	a.graph = g
	return nil
}
