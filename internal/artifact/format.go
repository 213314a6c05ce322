// Package artifact implements the content-addressed model artifact
// store: compiled T-Mark models as versioned, checksummed TMARKAR1
// files, plus the registry that resolves name[@sha256:…] model
// references to blobs on disk.
//
// A tmarkd model is, once built, exactly the normalised transition
// tensors O and R, the optional feature channel W, and the graph's
// label seeds and display names — all immutable. Building those parts
// from raw input is the expensive step (counting sorts over the
// adjacency stream, the O(n²·d) cosine matrix); everything afterwards
// only reads flat arrays. TMARKAR1 therefore serialises the flat
// arrays exactly as the kernels consume them, each in its own 8-byte
// aligned section, so activation is: read the file into memory, verify
// the checksum, wrap R's and W's sections as slices in place and copy
// O's into its row blocks — O(ms). The garbage collector frees the
// bytes once no model assembled from them is reachable.
//
// # TMARKAR1 layout (little-endian)
//
//	magic    "TMARKAR1"                          8 bytes
//	count    uint32    number of sections
//	reserved uint32    0
//	table    count × {kind u32, reserved u32, off u64, len u64}
//	…        sections, each 8-byte aligned, zero padding between
//	crc      uint64    crc64/ECMA over everything above
//
// Section offsets are absolute file offsets; lengths are in bytes. The
// META section is a strict, allocation-bounded binary stream (every
// length is checked against the bytes left before it is read):
// dimensions, the FNV-1a config hash and the arithmetic config fields,
// the W kind, class/relation/node names, and the label seeds. The hot sections are raw little-endian int32 /
// float64 arrays in the exact order the tensor and CSR layouts store
// them; DecodeBytes re-checks every structural invariant the kernels
// assume (sort orders, index ranges, offset monotonicity) because a
// file, unlike freshly normalised memory, proves nothing by
// construction.
//
// The artifact's identity is the SHA-256 of its full byte content; the
// registry names blobs by that hash, so equal models dedupe and a
// pinned reference can never silently change meaning.
package artifact

import "hash/crc64"

// Magic identifies a TMARKAR1 artifact file.
var magic = [8]byte{'T', 'M', 'A', 'R', 'K', 'A', 'R', '1'}

// Section kinds. The decoder rejects duplicate kinds and unknown kinds
// are skipped (forward compatibility: a newer writer may add sections a
// reader built from this source does not know).
const (
	secMeta uint32 = 1

	// NodeTransition O: entries in (k, j, i) order + non-dangling column list.
	secOI    uint32 = 10 // int32
	secOJ    uint32 = 11 // int32
	secOK    uint32 = 12 // int32
	secOP    uint32 = 13 // float64
	secOColJ uint32 = 14 // int32
	secOColK uint32 = 15 // int32

	// RelationTransition R: entries in (j, i, k) order + tube list/offsets.
	secRI     uint32 = 20 // int32
	secRJ     uint32 = 21 // int32
	secRK     uint32 = 22 // int32
	secRP     uint32 = 23 // float64
	secRTubeI uint32 = 24 // int32
	secRTubeJ uint32 = 25 // int32
	secRTubeS uint32 = 26 // int32, len tubes+1

	// Feature channel W: CSR arrays or the dense row-major matrix.
	secWRowPtr uint32 = 30 // int32, len n+1
	secWColIdx uint32 = 31 // int32
	secWVal    uint32 = 32 // float64
	secWDense  uint32 = 33 // float64, n×n row-major
)

// W kinds stored in META.
const (
	wNone  uint8 = 0
	wDense uint8 = 1
	wCSR   uint8 = 2
)

const (
	metaVersion  = 1
	headerFixed  = 8 + 4 + 4 // magic + count + reserved
	sectionEntry = 24        // kind + reserved + off + len
	trailerLen   = 8         // crc64
)

var crcTable = crc64.MakeTable(crc64.ECMA)
