package artifact

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"tmark/internal/dataset"
	"tmark/internal/tmark"
)

// scrubRegistry seeds a registry with two sealed versions (distinct
// configs, distinct mtimes so rollback order is deterministic) and a
// ref on each, returning the hashes oldest-first.
func scrubRegistry(t *testing.T) (*Registry, string, string) {
	t.Helper()
	r, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("OpenRegistry: %v", err)
	}
	dataA, hashA := mustCompile(t, dataset.Example(), tmark.DefaultConfig())
	if _, err := r.Put(dataA); err != nil {
		t.Fatalf("Put A: %v", err)
	}
	cfgB := tmark.DefaultConfig()
	cfgB.Alpha = 0.5
	dataB, hashB := mustCompile(t, dataset.Example(), cfgB)
	if _, err := r.Put(dataB); err != nil {
		t.Fatalf("Put B: %v", err)
	}
	// Pin the mtime order explicitly — sub-nanosecond put spacing must
	// not decide which blob is "newest".
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(r.BlobPath(hashA), old, old); err != nil {
		t.Fatalf("Chtimes: %v", err)
	}
	if err := r.Tag("stable", hashA); err != nil {
		t.Fatalf("Tag stable: %v", err)
	}
	if err := r.Tag("head", hashB); err != nil {
		t.Fatalf("Tag head: %v", err)
	}
	return r, hashA, hashB
}

func TestScrubCleanRegistry(t *testing.T) {
	r, _, _ := scrubRegistry(t)
	rep, err := r.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.Dirty() {
		t.Fatalf("clean registry reported dirty: %s", rep)
	}
	if rep.Blobs != 2 {
		t.Fatalf("verified %d blobs, want 2", rep.Blobs)
	}
}

func TestScrubQuarantinesCorruptBlobAndRepairsRef(t *testing.T) {
	r, hashA, hashB := scrubRegistry(t)
	// Flip one byte of B's blob: its ref "head" now points at damage.
	data, err := os.ReadFile(r.BlobPath(hashB))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(r.BlobPath(hashB), data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := r.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != hashB {
		t.Fatalf("Corrupt = %v, want [%s]", rep.Corrupt, hashB)
	}
	// The damaged bytes are evidence, not garbage: moved, not deleted.
	if _, err := os.Stat(filepath.Join(r.Dir(), "corrupt", hashB+".tmar")); err != nil {
		t.Fatalf("quarantined blob missing: %v", err)
	}
	if _, err := os.Stat(r.BlobPath(hashB)); err == nil {
		t.Fatal("corrupt blob still in blobs/")
	}
	// The dangling ref rolled back to the newest intact blob (A).
	if len(rep.Repaired) != 1 || rep.Repaired[0] != "head sha256:"+hashA {
		t.Fatalf("Repaired = %v", rep.Repaired)
	}
	if got, err := r.Resolve(Ref{Name: "head"}); err != nil || got != hashA {
		t.Fatalf("head resolves to %s (%v), want %s", got, err, hashA)
	}
	// The repaired ref opens and verifies like any other.
	if _, _, err := r.OpenRef(Ref{Name: "head"}); err != nil {
		t.Fatalf("OpenRef after repair: %v", err)
	}
	// A second pass finds nothing left to fix.
	rep2, err := r.Scrub()
	if err != nil {
		t.Fatalf("second Scrub: %v", err)
	}
	if rep2.Dirty() {
		t.Fatalf("second scrub still dirty: %s", rep2)
	}
}

func TestScrubRepairsDanglingRef(t *testing.T) {
	r, hashA, hashB := scrubRegistry(t)
	// Delete A's blob outright — "stable" now dangles.
	if err := os.Remove(r.BlobPath(hashA)); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(rep.Corrupt) != 0 {
		t.Fatalf("Corrupt = %v, want none", rep.Corrupt)
	}
	if len(rep.Repaired) != 1 || rep.Repaired[0] != "stable sha256:"+hashB {
		t.Fatalf("Repaired = %v, want stable -> %s", rep.Repaired, hashB)
	}
	if got, _ := r.Resolve(Ref{Name: "stable"}); got != hashB {
		t.Fatalf("stable resolves to %s, want %s", got, hashB)
	}
}

func TestScrubRemovesRefWithNothingLeft(t *testing.T) {
	r, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("OpenRegistry: %v", err)
	}
	data, hash := mustCompile(t, dataset.Example(), tmark.DefaultConfig())
	if _, err := r.Put(data); err != nil {
		t.Fatal(err)
	}
	if err := r.Tag("only", hash); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(r.BlobPath(hash)); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(rep.Removed) != 1 || rep.Removed[0] != "only" {
		t.Fatalf("Removed = %v, want [only]", rep.Removed)
	}
	if _, err := r.Resolve(Ref{Name: "only"}); err == nil {
		t.Fatal("removed ref still resolves")
	}
}
