package artifact

import (
	"errors"
	"os"
	"strings"
	"testing"

	"tmark/internal/dataset"
	"tmark/internal/tmark"
)

func TestParseRef(t *testing.T) {
	hash := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	good := map[string]Ref{
		"dblp":                {Name: "dblp"},
		"my.model_v2-final":   {Name: "my.model_v2-final"},
		"dblp@sha256:" + hash: {Name: "dblp", Hash: hash},
		"sha256:" + hash:      {Hash: hash},
	}
	for in, want := range good {
		got, err := ParseRef(in)
		if err != nil {
			t.Fatalf("ParseRef(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("ParseRef(%q) = %+v, want %+v", in, got, want)
		}
		if got.String() != in {
			t.Fatalf("Ref(%q).String() = %q", in, got.String())
		}
	}
	bad := []string{
		"", ".hidden", "-flag", "a/b", "a b", "a@", "a@sha256:",
		"a@sha256:short", "a@md5:" + hash, "sha256:" + hash[:63],
		"sha256:" + hash[:63] + "G", // uppercase / non-hex digit
		"dblp@" + hash,              // pin without algorithm prefix
	}
	for _, in := range bad {
		if _, err := ParseRef(in); err == nil {
			t.Fatalf("ParseRef(%q) accepted", in)
		}
	}
}

// No reference form takes a `#` fragment, including the shard=i/M
// selector legacy registries were written with: a shard ref must fail
// to parse rather than resolve to the whole model.
func TestParseRefShardFragment(t *testing.T) {
	hash := strings.Repeat("ab", 32)
	for _, base := range []string{"dblp", "dblp@sha256:" + hash, "sha256:" + hash} {
		for _, frag := range []string{
			"", "frag=1/2", "shard=0/2", "shard=3/4", "shard=1/16",
			"shard=2/2", "shard=-1/2", "shard=0/0", "shard=01/2", "shard=1",
		} {
			in := base + "#" + frag
			if r, err := ParseRef(in); err == nil {
				t.Fatalf("ParseRef(%q) accepted as %+v", in, r)
			}
		}
	}
	// Whole-model references stay exactly as before.
	r, err := ParseRef("dblp")
	if err != nil || r != (Ref{Name: "dblp"}) || r.String() != "dblp" {
		t.Fatalf("plain ref parsed as %+v (%v)", r, err)
	}
}

func TestRegistryPutTagResolveOpen(t *testing.T) {
	r, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data, hash := mustCompile(t, dataset.Example(), tmark.DefaultConfig())

	got, err := r.Put(data)
	if err != nil || got != hash {
		t.Fatalf("Put = %q, %v; want %q", got, err, hash)
	}
	if got, err = r.Put(data); err != nil || got != hash { // idempotent
		t.Fatalf("second Put = %q, %v", got, err)
	}
	// A damaged blob under the right name is repaired, not trusted: the
	// registry re-hashes existing bytes before skipping the write.
	if err := os.WriteFile(r.BlobPath(hash), []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err = r.Put(data); err != nil || got != hash {
		t.Fatalf("repair Put = %q, %v", got, err)
	}
	if _, _, err := r.OpenRef(Ref{Hash: hash}); err != nil {
		t.Fatalf("open after repair: %v", err)
	}
	if err := r.Tag("example", hash); err != nil {
		t.Fatalf("Tag: %v", err)
	}
	if err := r.Tag("dangling", "ab"+hash[2:]); err == nil {
		t.Fatal("Tag accepted a missing blob")
	}

	for _, ref := range []string{"example", "example@sha256:" + hash, "sha256:" + hash} {
		parsed, err := ParseRef(ref)
		if err != nil {
			t.Fatal(err)
		}
		h, err := r.Resolve(parsed)
		if err != nil || h != hash {
			t.Fatalf("Resolve(%q) = %q, %v", ref, h, err)
		}
		a, h, err := r.OpenRef(parsed)
		if err != nil || h != hash {
			t.Fatalf("OpenRef(%q): %q, %v", ref, h, err)
		}
		if _, err := a.Activate(a.BuiltConfig); err != nil {
			t.Fatalf("activate via %q: %v", ref, err)
		}
	}

	if _, err := r.Resolve(Ref{Name: "nosuch"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing ref: %v", err)
	}
	if _, err := r.Resolve(Ref{Hash: "ab" + hash[2:]}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing blob: %v", err)
	}

	// Retag moves the name; the old pin keeps meaning the old bytes.
	cfg2 := tmark.DefaultConfig()
	cfg2.Alpha = 0.9
	data2, hash2 := mustCompile(t, dataset.Example(), cfg2)
	if _, err := r.Put(data2); err != nil {
		t.Fatal(err)
	}
	if err := r.Tag("example", hash2); err != nil {
		t.Fatal(err)
	}
	if h, _ := r.Resolve(Ref{Name: "example"}); h != hash2 {
		t.Fatalf("retagged name resolves to %q, want %q", h, hash2)
	}
	if h, _ := r.Resolve(Ref{Name: "example", Hash: hash}); h != hash {
		t.Fatal("pinned ref moved with the tag")
	}

	infos, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "example" || infos[0].Hash != hash2 || infos[1].Name != "" || infos[1].Hash != hash {
		t.Fatalf("List = %+v", infos)
	}
}

func TestOpenRefDetectsSwappedBlob(t *testing.T) {
	r, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dataA, hashA := mustCompile(t, dataset.Example(), tmark.DefaultConfig())
	cfgB := tmark.DefaultConfig()
	cfgB.Alpha = 0.9
	dataB, _ := mustCompile(t, dataset.Example(), cfgB)
	if _, err := r.Put(dataA); err != nil {
		t.Fatal(err)
	}
	// Adversarial (or fat-fingered) swap: file B's bytes under A's name.
	// The blob is internally consistent — only the content hash betrays
	// it, so OpenRef must compare.
	if err := os.WriteFile(r.BlobPath(hashA), dataB, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.OpenRef(Ref{Hash: hashA}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("swapped blob opened: %v", err)
	}
}
