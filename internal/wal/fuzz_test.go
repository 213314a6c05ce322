package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"testing"
)

// FuzzDecodeWALRecord hammers the record decoder with hostile bytes,
// like FuzzDecodeArtifact does the artifact codec. The decoder
// sits on the recovery path — it reads whatever a crash left on disk —
// so it must never panic, never over-consume, and accept only frames
// that re-encode to the identical bytes.
//
// The checked-in corpus under testdata/fuzz/FuzzDecodeWALRecord seeds
// the interesting shapes: a valid frame, a truncated tail, a flipped
// crc byte, an oversized length prefix, and a zero-length batch.
func FuzzDecodeWALRecord(f *testing.F) {
	valid := (&Record{Seq: 3, Key: "k", Deltas: []Delta{
		{Op: OpAdd, From: 0, To: 1, Relation: 0, Weight: 1},
		{Op: OpRemove, From: 2, To: 3, Relation: 1},
	}}).Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)-6])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data)
		if err != nil {
			if rec != nil || n != 0 {
				t.Fatalf("failed decode leaked rec=%v n=%d", rec, n)
			}
			// The torn-tail signal must stay distinguishable: a frame cut
			// short is ErrTruncated; Open treats anything else as damage.
			_ = errors.Is(err, ErrTruncated)
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if verr := rec.Validate(); verr != nil {
			t.Fatalf("decoder accepted an invalid record: %v", verr)
		}
		// Round trip: an accepted frame re-encodes bitwise identically,
		// so replay and re-logging can never drift from what was stored.
		if !bytes.Equal(rec.Encode(), data[:n]) {
			t.Fatalf("accepted frame does not re-encode to itself")
		}
	})
}

// FuzzDecodeWALSnapshot does the same for the TMARKWS1 checkpoint
// decoder, which reads whatever a crash left of checkpoint.tmws. It
// must never panic; a failed decode returns no snapshot, and an
// accepted snapshot validates and re-encodes to the identical bytes.
//
// The seeds are a valid snapshot, a truncated one, one with a flipped
// crc byte, and one whose nnz claims more entries than its body holds
// under a correct crc, so only the length check can refuse it.
func FuzzDecodeWALSnapshot(f *testing.F) {
	valid := (&Snapshot{Seq: 4, Hash: "ab12", N: 3, M: 2,
		I: []int32{0, 2}, J: []int32{1, 1}, K: []int32{0, 1}, V: []float64{1, 0.5}}).Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	long := append([]byte(nil), valid[:len(valid)-8]...)
	// nnz follows the magic, seq, the hash length, the 4-byte hash, n and m.
	binary.LittleEndian.PutUint32(long[8+8+2+4+4+4:], 3)
	long = binary.LittleEndian.AppendUint64(long, crc64.Checksum(long, crcTable))
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			if s != nil {
				t.Fatalf("failed decode returned a snapshot: %v", err)
			}
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("decoder accepted an invalid snapshot: %v", verr)
		}
		if !bytes.Equal(s.Encode(), data) {
			t.Fatalf("accepted snapshot does not re-encode to itself")
		}
	})
}
