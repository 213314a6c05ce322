package artifact

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ScrubReport summarises one registry scrub pass.
type ScrubReport struct {
	// Blobs is the number of blob files whose content hash was verified.
	Blobs int
	// Corrupt lists the hashes of blobs whose bytes no longer hash to
	// their filename; each was moved to <dir>/corrupt/ for post-mortem.
	Corrupt []string
	// Repaired lists refs that pointed at a missing or quarantined blob
	// and were rolled back to the newest intact blob, as "name sha256:…".
	Repaired []string
	// Removed lists refs that pointed at a missing blob with no intact
	// blob left to roll back to; the ref file was deleted.
	Removed []string
}

// Dirty reports whether the scrub changed anything.
func (s *ScrubReport) Dirty() bool {
	return len(s.Corrupt) > 0 || len(s.Repaired) > 0 || len(s.Removed) > 0
}

// String renders the report for startup logs.
func (s *ScrubReport) String() string {
	return fmt.Sprintf("scrubbed %d blobs: %d corrupt, %d refs repaired, %d refs removed",
		s.Blobs, len(s.Corrupt), len(s.Repaired), len(s.Removed))
}

// Scrub verifies every blob in the registry against its content hash
// and repairs what it can: a blob whose bytes no longer hash to its
// filename is quarantined into <dir>/corrupt/ (kept, not destroyed — it
// is evidence), and a ref left pointing at a missing blob is rolled
// back to the newest intact blob by modification time, or removed when
// no intact blob remains. The registry keeps no per-name history, so
// the rollback target is the best durable approximation of "the last
// version that sealed"; a serving process re-seals the true head on its
// next applied batch.
//
// Scrub is safe to run against a registry with live readers: blobs are
// immutable, quarantine is a rename (an activated model serves from its
// own copy of the bytes), and hash-pinned readers are unaffected by ref
// rollbacks.
func (r *Registry) Scrub() (*ScrubReport, error) {
	rep := &ScrubReport{}
	blobDir := filepath.Join(r.dir, "blobs")
	entries, err := os.ReadDir(blobDir)
	if err != nil {
		return nil, err
	}
	type intact struct {
		hash  string
		mtime int64
	}
	var intactBlobs []intact
	for _, e := range entries {
		name := e.Name()
		hash, ok := strings.CutSuffix(name, ".tmar")
		if e.IsDir() || !ok || !validHash(hash) {
			continue // foreign files and in-flight temp files are not ours to judge
		}
		data, rerr := os.ReadFile(filepath.Join(blobDir, name))
		if rerr != nil {
			return nil, rerr
		}
		rep.Blobs++
		if Hash(data) == hash {
			info, ierr := e.Info()
			if ierr != nil {
				return nil, ierr
			}
			intactBlobs = append(intactBlobs, intact{hash: hash, mtime: info.ModTime().UnixNano()})
			continue
		}
		if merr := os.MkdirAll(filepath.Join(r.dir, "corrupt"), 0o755); merr != nil {
			return nil, merr
		}
		if merr := os.Rename(filepath.Join(blobDir, name), filepath.Join(r.dir, "corrupt", name)); merr != nil {
			return nil, merr
		}
		rep.Corrupt = append(rep.Corrupt, hash)
	}
	sort.Slice(intactBlobs, func(a, b int) bool { return intactBlobs[a].mtime > intactBlobs[b].mtime })
	sort.Strings(rep.Corrupt)

	refs, err := os.ReadDir(filepath.Join(r.dir, "refs"))
	if err != nil {
		return nil, err
	}
	for _, e := range refs {
		name := e.Name()
		if e.IsDir() || !ValidName(name) {
			continue
		}
		line, rerr := os.ReadFile(r.refPath(name))
		if rerr != nil {
			return nil, rerr
		}
		h, ok := strings.CutPrefix(strings.TrimSpace(string(line)), "sha256:")
		if ok && validHash(h) {
			if _, serr := os.Stat(r.BlobPath(h)); serr == nil {
				continue // healthy
			}
		}
		// Dangling (or malformed) ref: roll back to the newest intact
		// blob, or remove the ref when the registry has nothing left.
		if len(intactBlobs) == 0 {
			if rmerr := os.Remove(r.refPath(name)); rmerr != nil {
				return nil, rmerr
			}
			rep.Removed = append(rep.Removed, name)
			continue
		}
		target := intactBlobs[0].hash
		if terr := r.Tag(name, target); terr != nil {
			return nil, terr
		}
		rep.Repaired = append(rep.Repaired, name+" sha256:"+target)
	}
	sort.Strings(rep.Repaired)
	sort.Strings(rep.Removed)
	return rep, nil
}
