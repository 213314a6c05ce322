package artifact

import (
	"fmt"
	"os"

	"tmark/internal/fault"
)

// Open reads the artifact file at path into memory and decodes it. The
// bytes read are the artifact's own: R's and W's arrays alias them, O's
// are copied into its row blocks, and the garbage collector frees them
// once nothing holds a model assembled from the artifact. A later
// rewrite of the file therefore never reaches a decoded artifact. The
// crc64 trailer and every structural invariant are verified before any
// kernel may touch the data.
//
// Fault points: ArtifactOpen (Check) gates the read, ArtifactDecode
// (Fire, args (data []byte)) sees the raw bytes before parsing; a chaos
// hook may flip them in place to simulate on-disk corruption.
func Open(path string) (*Artifact, error) {
	if err := fault.Check(fault.ArtifactOpen); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Unguarded: with no hook armed, Fire is one atomic load, and the
	// read above dwarfs its argument slice.
	fault.Fire(fault.ArtifactDecode, data)
	a, err := DecodeBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// ContentHash returns the artifact's content identity: the SHA-256 of
// its full encoding. The registry compares it against the hash a blob
// is filed under, so a swapped or renamed blob cannot impersonate a
// pinned reference.
func (a *Artifact) ContentHash() string { return Hash(a.data) }
