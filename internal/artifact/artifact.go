package artifact

import (
	"fmt"
	"os"

	"tmark/internal/fault"
)

// Open maps the artifact file at path and decodes it. On platforms with
// mmap R's and W's arrays alias the mapping (the file's pages load
// lazily and are shared between processes serving the same blob) and
// O's are copied into its row blocks; elsewhere,
// or if the mapping fails, the file is read into memory instead. Either
// way the crc64 trailer and every structural invariant are verified
// before any kernel may touch the data.
//
// Fault points: ArtifactOpen (Check) gates the open, ArtifactDecode
// (Fire, args (data []byte)) sees the raw bytes before parsing — while
// fault injection is enabled the bytes are a private writable copy, so
// a chaos hook may flip them to simulate on-disk corruption.
func Open(path string) (*Artifact, error) {
	if err := fault.Check(fault.ArtifactOpen); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < headerFixed+trailerLen {
		return nil, corrupt("%s: %d bytes is shorter than the fixed header", path, st.Size())
	}
	if st.Size() > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("artifact: %s: %d bytes exceeds the address space", path, st.Size())
	}

	data, unmap, err := mmapFile(f, int(st.Size()))
	if err != nil {
		// Mapping failed (platform, filesystem, exhausted maps): degrade
		// to a plain read so the artifact still serves.
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
		unmap = nil
	}
	if fault.Enabled() {
		// Chaos hooks mutate bytes to simulate corruption; give them a
		// writable private copy instead of a PROT_READ mapping.
		writable := append([]byte(nil), data...)
		if unmap != nil {
			unmap()
			unmap = nil
		}
		data = writable
		fault.Fire(fault.ArtifactDecode, data)
	}

	a, err := DecodeBytes(data)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	a.munmap = unmap
	return a, nil
}

// ContentHash returns the artifact's content identity: the SHA-256 of
// its full encoding. The registry compares it against the hash a blob
// is filed under, so a swapped or renamed blob cannot impersonate a
// pinned reference.
func (a *Artifact) ContentHash() string { return Hash(a.data) }
