package wal

// The TMARKWL1 record codec. One record is one logged ingest batch,
// framed for an append-only segment file:
//
//	length  uint32    payload byte count
//	payload
//	  seq     uint64  the sequence number the batch was assigned
//	  keyLen  uint16  idempotency-key length, ≤ MaxKeyLen
//	  key     keyLen bytes
//	  count   uint32  delta count, 1 ≤ count ≤ MaxDeltas
//	  deltas  count × (op uint8, from int32, to int32, relation int32,
//	                   weight float64-bits), little-endian
//	crc     uint64    crc64/ECMA over the payload
//
// DecodeRecord is strict in the checkpoint-decoder tradition: it
// validates the length prefix against hard caps before allocating,
// verifies the checksum, checks every structural invariant, and never
// panics on hostile input — it is fuzzed (FuzzDecodeWALRecord).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
)

// Op codes of one logged delta. They mirror stream's add/update/remove
// ops; the WAL keeps its own compact spelling so the log format does
// not depend on (or import) the engine package.
const (
	OpAdd    uint8 = 1
	OpUpdate uint8 = 2
	OpRemove uint8 = 3
)

const (
	// MaxKeyLen bounds one idempotency key, matching the serve layer's
	// header validation.
	MaxKeyLen = 256
	// MaxDeltas bounds one logged batch; it matches stream.MaxDeltas so
	// every batch the engine accepts is loggable.
	MaxDeltas = 1 << 17

	deltaBytes = 1 + 3*4 + 8 // op + from/to/relation + weight
	// maxPayload is the largest well-formed payload: a full batch under
	// a maximal key. The length prefix is validated against it before
	// any allocation, so a hostile prefix cannot drive memory use past
	// the input size.
	maxPayload = 8 + 2 + MaxKeyLen + 4 + MaxDeltas*deltaBytes
	frameHead  = 4 // length prefix
	frameTail  = 8 // crc64 trailer
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrTruncated reports a frame that ends before its declared length —
// the torn-tail shape a crash mid-append leaves behind. Open truncates
// the final segment at the first such frame; DecodeRecord callers use
// it to tell "cut here" from real corruption.
var ErrTruncated = errors.New("wal: truncated record")

// Delta is one logged edge mutation in wire form: the coordinates the
// engine addresses plus the compact op code.
type Delta struct {
	Op                 uint8
	From, To, Relation int32
	Weight             float64
}

// Record is one logged ingest batch: the sequence number it was
// assigned, the client's idempotency key ("" when none was supplied)
// and the original delta batch, pre-composition — replay re-derives
// every downstream effect deterministically.
type Record struct {
	Seq    uint64
	Key    string
	Deltas []Delta
}

// Validate checks the record's static encoding invariants.
func (r *Record) Validate() error {
	if len(r.Key) > MaxKeyLen {
		return fmt.Errorf("wal: idempotency key of %d bytes exceeds the %d cap", len(r.Key), MaxKeyLen)
	}
	if len(r.Deltas) == 0 {
		return errors.New("wal: empty delta batch")
	}
	if len(r.Deltas) > MaxDeltas {
		return fmt.Errorf("wal: batch of %d deltas exceeds the %d cap", len(r.Deltas), MaxDeltas)
	}
	for q, d := range r.Deltas {
		if d.Op != OpAdd && d.Op != OpUpdate && d.Op != OpRemove {
			return fmt.Errorf("wal: delta %d has unknown op code %d", q, d.Op)
		}
	}
	return nil
}

// Encode serialises the record into one framed segment entry.
func (r *Record) Encode() []byte {
	payload := 8 + 2 + len(r.Key) + 4 + len(r.Deltas)*deltaBytes
	buf := make([]byte, 0, frameHead+payload+frameTail)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payload))
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Key)))
	buf = append(buf, r.Key...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Deltas)))
	for _, d := range r.Deltas {
		buf = append(buf, d.Op)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.From))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.To))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Relation))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.Weight))
	}
	buf = binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf[frameHead:], crcTable))
	return buf
}

// DecodeRecord parses one framed record from the front of data,
// returning the record and the frame size consumed. A frame that ends
// early wraps ErrTruncated (the torn-tail signal); everything else —
// checksum mismatch, oversized or undersized length prefix, bad op
// codes, key/count bounds — is a hard corruption error. It never
// panics and never allocates more than the frame it accepts.
func DecodeRecord(data []byte) (*Record, int, error) {
	if len(data) < frameHead {
		return nil, 0, fmt.Errorf("%w: %d bytes before the length prefix", ErrTruncated, len(data))
	}
	payload := int(binary.LittleEndian.Uint32(data))
	if payload < 8+2+4+deltaBytes || payload > maxPayload {
		return nil, 0, fmt.Errorf("wal: record length prefix %d outside [%d, %d]", payload, 8+2+4+deltaBytes, maxPayload)
	}
	frame := frameHead + payload + frameTail
	if len(data) < frame {
		return nil, 0, fmt.Errorf("%w: frame wants %d bytes, have %d", ErrTruncated, frame, len(data))
	}
	body := data[frameHead : frameHead+payload]
	stored := binary.LittleEndian.Uint64(data[frameHead+payload:])
	if got := crc64.Checksum(body, crcTable); got != stored {
		return nil, 0, fmt.Errorf("wal: record checksum mismatch (stored %016x, computed %016x)", stored, got)
	}
	rec := &Record{Seq: binary.LittleEndian.Uint64(body)}
	keyLen := int(binary.LittleEndian.Uint16(body[8:]))
	if keyLen > MaxKeyLen {
		return nil, 0, fmt.Errorf("wal: idempotency key of %d bytes exceeds the %d cap", keyLen, MaxKeyLen)
	}
	off := 8 + 2
	if len(body) < off+keyLen+4 {
		return nil, 0, fmt.Errorf("wal: record payload too short for its %d-byte key", keyLen)
	}
	rec.Key = string(body[off : off+keyLen])
	off += keyLen
	count := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if count < 1 || count > MaxDeltas {
		return nil, 0, fmt.Errorf("wal: delta count %d outside [1, %d]", count, MaxDeltas)
	}
	if len(body)-off != count*deltaBytes {
		return nil, 0, fmt.Errorf("wal: %d payload bytes left for %d deltas (want %d)", len(body)-off, count, count*deltaBytes)
	}
	rec.Deltas = make([]Delta, count)
	for q := range rec.Deltas {
		d := &rec.Deltas[q]
		d.Op = body[off]
		if d.Op != OpAdd && d.Op != OpUpdate && d.Op != OpRemove {
			return nil, 0, fmt.Errorf("wal: delta %d has unknown op code %d", q, d.Op)
		}
		d.From = int32(binary.LittleEndian.Uint32(body[off+1:]))
		d.To = int32(binary.LittleEndian.Uint32(body[off+5:]))
		d.Relation = int32(binary.LittleEndian.Uint32(body[off+9:]))
		d.Weight = math.Float64frombits(binary.LittleEndian.Uint64(body[off+13:]))
		off += deltaBytes
	}
	return rec, frame, nil
}
