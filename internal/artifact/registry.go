package artifact

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Registry is a content-addressed artifact store on disk, laid out in
// the git-refs style:
//
//	<dir>/blobs/<sha256-hex>.tmar   the immutable artifacts
//	<dir>/refs/<name>               one line: sha256:<hex>
//
// A blob's filename is the SHA-256 of its content, so equal models
// dedupe and every reference is reproducible. Refs are mutable name →
// hash pointers (`tmark build` moves them); a pinned reference
// (name@sha256:… or bare sha256:…) bypasses the ref file entirely and
// can never change meaning.
type Registry struct {
	dir string
}

// ErrNotFound reports a reference that resolves to nothing: no ref file
// by that name, or no blob under the pinned hash.
var ErrNotFound = errors.New("artifact: not found")

// OpenRegistry opens (creating if needed) the registry rooted at dir.
func OpenRegistry(dir string) (*Registry, error) {
	if dir == "" {
		return nil, errors.New("artifact: registry needs a directory")
	}
	for _, sub := range []string{"blobs", "refs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	return &Registry{dir: dir}, nil
}

// Dir returns the registry's root directory.
func (r *Registry) Dir() string { return r.dir }

// BlobPath returns the on-disk path a blob with the given content hash
// lives at (whether or not it exists).
func (r *Registry) BlobPath(hash string) string {
	return filepath.Join(r.dir, "blobs", hash+".tmar")
}

func (r *Registry) refPath(name string) string {
	return filepath.Join(r.dir, "refs", name)
}

// ValidName reports whether name is usable as a model reference name:
// nonempty, at most 128 bytes, drawn from [A-Za-z0-9._-], and not
// starting with a dot or dash (keeps refs/ free of path tricks and
// flag-lookalikes).
func ValidName(name string) bool {
	if name == "" || len(name) > 128 || name[0] == '.' || name[0] == '-' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

var shardRefNameRE = regexp.MustCompile(`^sh-[0-9a-f]{64}-[0-9]+-[0-9]+$`)

// IsShardRefName reports whether name is a legacy shard ref of the form
// sh-<parent-hash>-<i>-<M>. Registries written by the removed
// multi-process solve (`tmark build -shards`) still hold such refs,
// pointing at per-shard sub-tensor blobs that are not classifiable
// models, so anything enumerating servable models skips them.
func IsShardRefName(name string) bool {
	return shardRefNameRE.MatchString(name)
}

// Ref is a parsed model reference.
type Ref struct {
	// Name is the symbolic name; empty for a bare sha256:… reference.
	Name string
	// Hash pins the content hash; empty when the reference floats on
	// the name alone.
	Hash string
}

func (f Ref) String() string {
	switch {
	case f.Name != "" && f.Hash != "":
		return f.Name + "@sha256:" + f.Hash
	case f.Hash != "":
		return "sha256:" + f.Hash
	default:
		return f.Name
	}
}

// ParseRef parses a model reference of one of the forms
//
//	name
//	name@sha256:<64 hex>
//	sha256:<64 hex>
//
// Hex digits must be lowercase — the hash is an identity, and a single
// canonical spelling keeps equal references equal as strings.
func ParseRef(ref string) (Ref, error) {
	if h, ok := strings.CutPrefix(ref, "sha256:"); ok {
		if !validHash(h) {
			return Ref{}, fmt.Errorf("artifact: malformed hash in reference %q", ref)
		}
		return Ref{Hash: h}, nil
	}
	name, rest, pinned := strings.Cut(ref, "@")
	if !ValidName(name) {
		return Ref{}, fmt.Errorf("artifact: malformed model name in reference %q", ref)
	}
	if !pinned {
		return Ref{Name: name}, nil
	}
	h, ok := strings.CutPrefix(rest, "sha256:")
	if !ok || !validHash(h) {
		return Ref{}, fmt.Errorf("artifact: reference %q pin must be sha256:<64 lowercase hex>", ref)
	}
	return Ref{Name: name, Hash: h}, nil
}

// Put stores an encoded artifact blob, returning its content hash. The
// write is atomic (temp file + rename) and idempotent — but an existing
// blob is trusted only after its bytes actually hash to its name, so
// re-Putting over a damaged file repairs it (`tmark build` is the
// repair tool for a corrupted registry).
func (r *Registry) Put(data []byte) (string, error) {
	hash := Hash(data)
	path := r.BlobPath(hash)
	if existing, err := os.ReadFile(path); err == nil && Hash(existing) == hash {
		return hash, nil
	}
	tmp, err := os.CreateTemp(filepath.Join(r.dir, "blobs"), ".put-*")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	// CreateTemp's 0600 would keep the blob from other readers (a
	// serving user distinct from the building one); artifacts are
	// immutable public data.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	return hash, nil
}

// Tag points name at the blob with the given content hash. The blob
// must already exist (Put first), so a ref can never dangle at birth.
func (r *Registry) Tag(name, hash string) error {
	if !ValidName(name) {
		return fmt.Errorf("artifact: malformed model name %q", name)
	}
	if !validHash(hash) {
		return fmt.Errorf("artifact: malformed hash %q", hash)
	}
	if _, err := os.Stat(r.BlobPath(hash)); err != nil {
		return fmt.Errorf("artifact: cannot tag %s: blob sha256:%s %w", name, hash, ErrNotFound)
	}
	tmp, err := os.CreateTemp(filepath.Join(r.dir, "refs"), ".tag-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.WriteString("sha256:" + hash + "\n"); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), r.refPath(name))
}

// Resolve turns a parsed reference into the content hash it denotes. A
// pinned reference resolves to its pin (after confirming the blob
// exists, and — when both name and pin are present — that the name is
// not even consulted: the pin wins, matching container-image @digest
// semantics). A floating name reads refs/<name>.
func (r *Registry) Resolve(ref Ref) (string, error) {
	if ref.Hash != "" {
		if _, err := os.Stat(r.BlobPath(ref.Hash)); err != nil {
			return "", fmt.Errorf("artifact: blob sha256:%s %w", ref.Hash, ErrNotFound)
		}
		return ref.Hash, nil
	}
	if !ValidName(ref.Name) {
		return "", fmt.Errorf("artifact: malformed model name %q", ref.Name)
	}
	line, err := os.ReadFile(r.refPath(ref.Name))
	if err != nil {
		if os.IsNotExist(err) {
			return "", fmt.Errorf("artifact: model %q %w", ref.Name, ErrNotFound)
		}
		return "", err
	}
	h, ok := strings.CutPrefix(strings.TrimSpace(string(line)), "sha256:")
	if !ok || !validHash(h) {
		return "", fmt.Errorf("artifact: ref %q holds a malformed hash", ref.Name)
	}
	if _, err := os.Stat(r.BlobPath(h)); err != nil {
		return "", fmt.Errorf("artifact: ref %q points at missing blob sha256:%s: %w", ref.Name, h, ErrNotFound)
	}
	return h, nil
}

// OpenRef resolves a reference, reads its blob and verifies that the
// blob's actual content hash matches the hash it resolved to — a
// swapped, renamed or silently rewritten blob is rejected here rather
// than trusted because of its filename. The bytes hashed are the bytes
// the artifact serves from. The resolved hash is returned alongside
// the artifact.
func (r *Registry) OpenRef(ref Ref) (*Artifact, string, error) {
	hash, err := r.Resolve(ref)
	if err != nil {
		return nil, "", err
	}
	a, err := Open(r.BlobPath(hash))
	if err != nil {
		return nil, hash, err
	}
	if got := a.ContentHash(); got != hash {
		return nil, hash, corrupt("blob filed under sha256:%s hashes to sha256:%s", hash, got)
	}
	return a, hash, nil
}

// RefInfo is one registry listing entry.
type RefInfo struct {
	Name string // empty for an untagged blob
	Hash string
}

// List enumerates the registry: every named ref (sorted by name),
// followed by blobs no ref points at (sorted by hash). Malformed ref
// files and foreign files in blobs/ are skipped, not errors — the
// registry must stay listable even after manual surgery.
func (r *Registry) List() ([]RefInfo, error) {
	refs, err := os.ReadDir(filepath.Join(r.dir, "refs"))
	if err != nil {
		return nil, err
	}
	var out []RefInfo
	tagged := map[string]bool{}
	for _, e := range refs {
		if e.IsDir() || !ValidName(e.Name()) {
			continue
		}
		h, err := r.Resolve(Ref{Name: e.Name()})
		if err != nil {
			continue
		}
		tagged[h] = true
		out = append(out, RefInfo{Name: e.Name(), Hash: h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	blobs, err := os.ReadDir(filepath.Join(r.dir, "blobs"))
	if err != nil {
		return nil, err
	}
	var loose []RefInfo
	for _, e := range blobs {
		h, ok := strings.CutSuffix(e.Name(), ".tmar")
		if e.IsDir() || !ok || !validHash(h) || tagged[h] {
			continue
		}
		loose = append(loose, RefInfo{Hash: h})
	}
	sort.Slice(loose, func(i, j int) bool { return loose[i].Hash < loose[j].Hash })
	return append(out, loose...), nil
}
