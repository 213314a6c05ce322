package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc64"
	"math"
	"unsafe"

	"tmark/internal/hin"
	"tmark/internal/tmark"
)

// Hash returns the content identity of an encoded artifact: the
// lowercase hex SHA-256 of its full byte content.
func Hash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Compile builds the model for (g, cfg) and encodes it as a TMARKAR1
// artifact, returning the encoding and its content hash. This is the
// `tmark build` entry point; serving uses it as the canonical-identity
// computation for models rebuilt from raw input, so the encoding is
// fully deterministic: equal graph + config always yield equal bytes.
func Compile(g *hin.Graph, cfg tmark.Config) (data []byte, hash string, err error) {
	model, err := tmark.New(g, cfg)
	if err != nil {
		return nil, "", err
	}
	data, err = EncodeModel(g, cfg, model.Substrate())
	if err != nil {
		return nil, "", err
	}
	return data, Hash(data), nil
}

// EncodeModel serialises a built model's substrate into the TMARKAR1
// format. The graph supplies the metadata (names, classes, label
// seeds); edges and features are deliberately not stored — the
// normalised tensors already embody them. On a little-endian host each
// hot section is copied once, straight from the substrate's array into
// the container buffer.
func EncodeModel(g *hin.Graph, cfg tmark.Config, s tmark.Substrate) ([]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g == nil || s.O == nil || s.R == nil {
		return nil, fmt.Errorf("artifact: encode needs a graph and both transition tensors")
	}
	oRaw, rRaw := s.O.Raw(), s.R.Raw()
	if oRaw.N != g.N() || oRaw.M != g.M() || rRaw.N != g.N() || rRaw.M != g.M() {
		return nil, fmt.Errorf("artifact: substrate %dx%d / %dx%d disagrees with graph %dx%d",
			oRaw.N, oRaw.M, rRaw.N, rRaw.M, g.N(), g.M())
	}

	meta := encodeMeta(g, cfg, s)

	secs := []rawSection{
		{secMeta, meta},
		{secOI, i32Bytes(oRaw.I)}, {secOJ, i32Bytes(oRaw.J)}, {secOK, i32Bytes(oRaw.K)},
		{secOP, f64Bytes(oRaw.P)},
		{secOColJ, i32Bytes(oRaw.ColJ)}, {secOColK, i32Bytes(oRaw.ColK)},
		{secRI, i32Bytes(rRaw.I)}, {secRJ, i32Bytes(rRaw.J)}, {secRK, i32Bytes(rRaw.K)},
		{secRP, f64Bytes(rRaw.P)},
		{secRTubeI, i32Bytes(rRaw.TubeI)}, {secRTubeJ, i32Bytes(rRaw.TubeJ)},
		{secRTubeS, i32Bytes(rRaw.TubeStart)},
	}
	switch {
	case s.WDense != nil:
		secs = append(secs, rawSection{secWDense, f64Bytes(s.WDense.Data)})
	case s.WCSR != nil:
		w := s.WCSR.Raw()
		secs = append(secs,
			rawSection{secWRowPtr, i32Bytes(w.RowPtr)},
			rawSection{secWColIdx, i32Bytes(w.ColIdx)},
			rawSection{secWVal, f64Bytes(w.Values)})
	}
	return assembleContainer(secs)
}

// rawSection is one section to be laid into a container.
type rawSection struct {
	kind uint32
	data []byte
}

// assembleContainer lays sections into the TMARKAR1 header-table /
// align8 / crc64 container.
func assembleContainer(secs []rawSection) ([]byte, error) {
	headerLen := headerFixed + len(secs)*sectionEntry
	off := align8(headerLen)
	total := off
	offs := make([]int, len(secs))
	for i, sc := range secs {
		offs[i] = total
		total = align8(total + len(sc.data))
	}
	buf := make([]byte, total+trailerLen)
	copy(buf, magic[:])
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(secs)))
	for i, sc := range secs {
		e := headerFixed + i*sectionEntry
		binary.LittleEndian.PutUint32(buf[e:], sc.kind)
		binary.LittleEndian.PutUint64(buf[e+8:], uint64(offs[i]))
		binary.LittleEndian.PutUint64(buf[e+16:], uint64(len(sc.data)))
		copy(buf[offs[i]:], sc.data)
	}
	binary.LittleEndian.PutUint64(buf[total:], crc64.Checksum(buf[:total], crcTable))
	return buf, nil
}

// encodeMeta serialises the metadata stream: dimensions, config,
// W kind, names and label seeds.
func encodeMeta(g *hin.Graph, cfg tmark.Config, s tmark.Substrate) []byte {
	var w metaWriter
	w.u32(metaVersion)
	w.u32(uint32(g.N()))
	w.u32(uint32(g.M()))
	w.u32(uint32(g.Q()))
	w.u64(tmark.HashConfig(cfg))
	w.f64(cfg.Alpha)
	w.f64(cfg.Gamma)
	w.f64(cfg.Lambda)
	w.f64(cfg.Epsilon)
	w.u32(uint32(cfg.MaxIterations))
	w.bool(cfg.ICAUpdate)
	w.u32(uint32(cfg.FeatureTopK))
	switch {
	case s.WDense != nil:
		w.u8(wDense)
	case s.WCSR != nil:
		w.u8(wCSR)
	default:
		w.u8(wNone)
	}
	w.bool(s.Irreducible)
	for _, c := range g.Classes {
		w.str(c)
	}
	for k := range g.Relations {
		w.str(g.Relations[k].Name)
		w.bool(g.Relations[k].Directed)
	}
	total := 0
	for i := range g.Nodes {
		w.str(g.Nodes[i].Name)
		total += len(g.Nodes[i].Labels)
	}
	w.u32(uint32(total))
	for i := range g.Nodes {
		w.u32(uint32(len(g.Nodes[i].Labels)))
		for _, c := range g.Nodes[i].Labels {
			w.u32(uint32(c))
		}
	}
	return w.buf
}

type metaWriter struct{ buf []byte }

func (w *metaWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *metaWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *metaWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *metaWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *metaWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *metaWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// i32Bytes returns the little-endian bytes of xs. On a little-endian
// host they are a read-only view of xs itself (viewI32 in reverse), so
// assembleContainer's copy is the only one; elsewhere they are encoded
// element by element into a new buffer.
func i32Bytes(xs []int32) []byte {
	if len(xs) == 0 {
		return nil
	}
	if nativeLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), 4*len(xs))
	}
	out := make([]byte, 4*len(xs))
	for i, v := range xs {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out
}

// f64Bytes returns the little-endian bytes of xs (see i32Bytes).
func f64Bytes(xs []float64) []byte {
	if len(xs) == 0 {
		return nil
	}
	if nativeLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), 8*len(xs))
	}
	out := make([]byte, 8*len(xs))
	for i, v := range xs {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func align8(n int) int { return (n + 7) &^ 7 }
