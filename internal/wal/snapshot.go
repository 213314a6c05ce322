package wal

// The TMARKWS1 snapshot codec. A snapshot is the log's checkpoint: the
// raw adjacency COO of a committed, sealed batch sequence point, plus
// the content hash the engine sealed there. Once a snapshot is durable,
// every record at or below its sequence number is redundant — replay
// restores the adjacency from the snapshot, re-derives the normalised
// substrate (a pure function of the raw values) and verifies the stored
// hash before trusting any of it — so Checkpoint prunes the covered
// segments.
//
// The raw adjacency must be snapshotted, not re-derived: a sealed
// artifact stores the normalised transition tensors, and normalisation
// divides each column by its sum, so the raw per-edge weights (the
// state future deltas compose against) are not recoverable from any
// artifact.
//
//	magic   "TMARKWS1"                8 bytes
//	seq     uint64
//	hashLen uint16   ≤ 128
//	hash    hashLen bytes (lowercase hex content hash)
//	n, m    uint32   node and relation counts
//	nnz     uint32   stored adjacency entries
//	i, j, k nnz × int32 each
//	v       nnz × float64
//	crc     uint64   crc64/ECMA over everything above

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
)

var snapMagic = [8]byte{'T', 'M', 'A', 'R', 'K', 'W', 'S', '1'}

const (
	maxSnapHashLen = 128
	snapFixed      = 8 + 8 + 2 + 4 + 4 + 4 + 8 // magic..nnz plus crc
)

// Snapshot is one log checkpoint: the raw adjacency at sequence Seq,
// whose substrate sealed under Hash.
type Snapshot struct {
	Seq  uint64
	Hash string
	// N, M are the adjacency dimensions; I, J, K, V its entries in the
	// engine's (k, j, i) order.
	N, M    int
	I, J, K []int32
	V       []float64
}

// Validate checks the snapshot's structural invariants: the hash
// length, aligned entry arrays and nonnegative dimensions. The entries
// themselves (index ranges, order, weights) are for the restoring
// engine to check before it builds anything from them.
func (s *Snapshot) Validate() error {
	if len(s.Hash) > maxSnapHashLen {
		return fmt.Errorf("wal: snapshot hash of %d bytes exceeds the %d cap", len(s.Hash), maxSnapHashLen)
	}
	nnz := len(s.V)
	if len(s.I) != nnz || len(s.J) != nnz || len(s.K) != nnz {
		return fmt.Errorf("wal: snapshot index arrays disagree (%d/%d/%d/%d)", len(s.I), len(s.J), len(s.K), nnz)
	}
	if s.N < 0 || s.M < 0 {
		return fmt.Errorf("wal: snapshot dimensions %dx%d invalid", s.N, s.M)
	}
	return nil
}

// Encode serialises the snapshot into the versioned, checksummed form.
func (s *Snapshot) Encode() []byte {
	nnz := len(s.V)
	buf := make([]byte, 0, snapFixed+len(s.Hash)+nnz*(3*4+8))
	buf = append(buf, snapMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, s.Seq)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.Hash)))
	buf = append(buf, s.Hash...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.N))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.M))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nnz))
	for _, arr := range [][]int32{s.I, s.J, s.K} {
		for _, x := range arr {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
	}
	for _, f := range s.V {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	buf = binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
	return buf
}

// DecodeSnapshot parses and validates a serialised snapshot. Strict in
// the usual way: checksum first, every length checked against the
// remaining input before allocation, no panics on hostile bytes.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < snapFixed {
		return nil, fmt.Errorf("wal: snapshot too short (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	if got, want := binary.LittleEndian.Uint64(tail), crc64.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("wal: snapshot checksum mismatch (stored %016x, computed %016x)", got, want)
	}
	if [8]byte(body[:8]) != snapMagic {
		return nil, fmt.Errorf("wal: not a snapshot (magic %q, want %q)", body[:8], snapMagic[:])
	}
	s := &Snapshot{Seq: binary.LittleEndian.Uint64(body[8:])}
	hashLen := int(binary.LittleEndian.Uint16(body[16:]))
	if hashLen > maxSnapHashLen {
		return nil, fmt.Errorf("wal: snapshot hash of %d bytes exceeds the %d cap", hashLen, maxSnapHashLen)
	}
	off := 18
	if len(body) < off+hashLen+12 {
		return nil, fmt.Errorf("wal: snapshot too short for its %d-byte hash", hashLen)
	}
	s.Hash = string(body[off : off+hashLen])
	off += hashLen
	s.N = int(binary.LittleEndian.Uint32(body[off:]))
	s.M = int(binary.LittleEndian.Uint32(body[off+4:]))
	nnz := int(binary.LittleEndian.Uint32(body[off+8:]))
	off += 12
	if want := nnz * (3*4 + 8); nnz < 0 || len(body)-off != want {
		return nil, fmt.Errorf("wal: %d snapshot bytes left for %d entries (want %d)", len(body)-off, nnz, want)
	}
	ints := func() []int32 {
		out := make([]int32, nnz)
		for q := range out {
			out[q] = int32(binary.LittleEndian.Uint32(body[off:]))
			off += 4
		}
		return out
	}
	s.I, s.J, s.K = ints(), ints(), ints()
	s.V = make([]float64, nnz)
	for q := range s.V {
		s.V[q] = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
		off += 8
	}
	return s, nil
}

// snapshotPath is the one checkpoint file of a log directory; saves
// replace it atomically.
func snapshotPath(dir string) string { return filepath.Join(dir, "checkpoint.tmws") }

// saveSnapshot writes the snapshot atomically (temp file + fsync +
// rename), so a crash mid-checkpoint leaves the previous one intact.
func saveSnapshot(dir string, s *Snapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".tmws-*")
	if err != nil {
		return fmt.Errorf("wal: snapshot save: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(s.Encode())
	if werr == nil {
		werr = f.Sync()
	}
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, snapshotPath(dir))
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot save: %w", werr)
	}
	return syncDir(dir)
}
