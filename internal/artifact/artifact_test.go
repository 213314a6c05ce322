package artifact

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"tmark/internal/dataset"
	"tmark/internal/hin"
	"tmark/internal/tmark"
)

// variants covers the three feature-channel shapes an artifact can
// store: none (Gamma 0), dense (full cosine matrix) and CSR (top-K
// sparsified).
func variants() []struct {
	name string
	g    *hin.Graph
	cfg  tmark.Config
} {
	dense := tmark.DefaultConfig()
	noW := tmark.DefaultConfig()
	noW.Gamma = 0
	csr := tmark.DefaultConfig()
	csr.FeatureTopK = 4
	return []struct {
		name string
		g    *hin.Graph
		cfg  tmark.Config
	}{
		{"example-dense", dataset.Example(), dense},
		{"example-noW", dataset.Example(), noW},
		{"dblp-csr", dataset.DBLP(dataset.DefaultDBLPConfig(1)), csr},
	}
}

// mustCompile builds and encodes, failing the test on error.
func mustCompile(t *testing.T, g *hin.Graph, cfg tmark.Config) ([]byte, string) {
	t.Helper()
	data, hash, err := Compile(g, cfg)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return data, hash
}

// sameResults demands bitwise-equal stationary distributions: the
// activated model must be indistinguishable from the raw-built one.
func sameResults(t *testing.T, want, got *tmark.Result) {
	t.Helper()
	if len(want.Classes) != len(got.Classes) {
		t.Fatalf("class count %d vs %d", len(want.Classes), len(got.Classes))
	}
	for c := range want.Classes {
		w, g := want.Classes[c], got.Classes[c]
		if w.Iterations != g.Iterations || w.Converged != g.Converged {
			t.Fatalf("class %d: iterations %d/%v vs %d/%v", c, w.Iterations, w.Converged, g.Iterations, g.Converged)
		}
		for i := range w.X {
			if w.X[i] != g.X[i] {
				t.Fatalf("class %d: x[%d] = %v vs %v (not bitwise equal)", c, i, w.X[i], g.X[i])
			}
		}
		for k := range w.Z {
			if w.Z[k] != g.Z[k] {
				t.Fatalf("class %d: z[%d] = %v vs %v (not bitwise equal)", c, k, w.Z[k], g.Z[k])
			}
		}
	}
}

func TestRoundTripBitwise(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			data, _ := mustCompile(t, v.g, v.cfg)
			a, err := DecodeBytes(data)
			if err != nil {
				t.Fatalf("DecodeBytes: %v", err)
			}
			if a.N != v.g.N() || a.M != v.g.M() || a.Q != v.g.Q() {
				t.Fatalf("dims %d/%d/%d, want %d/%d/%d", a.N, a.M, a.Q, v.g.N(), v.g.M(), v.g.Q())
			}
			if a.BuiltConfig != stripWorkers(v.cfg) {
				t.Fatalf("BuiltConfig %+v, want %+v", a.BuiltConfig, v.cfg)
			}
			raw, err := tmark.New(v.g, v.cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			activated, err := a.Activate(a.BuiltConfig)
			if err != nil {
				t.Fatalf("Activate: %v", err)
			}
			sameResults(t, raw.Run(), activated.Run())

			// The decoded graph carries the same label seeds and names.
			for i := 0; i < v.g.N(); i++ {
				if a.Graph().Nodes[i].Name != v.g.Nodes[i].Name {
					t.Fatalf("node %d name %q, want %q", i, a.Graph().Nodes[i].Name, v.g.Nodes[i].Name)
				}
				if a.Graph().PrimaryLabel(i) != v.g.PrimaryLabel(i) {
					t.Fatalf("node %d label %d, want %d", i, a.Graph().PrimaryLabel(i), v.g.PrimaryLabel(i))
				}
			}

			// Re-encoding the decoded substrate reproduces the bytes:
			// the encoding is canonical, so artifact identity survives a
			// decode/encode cycle.
			again, err := EncodeModel(a.Graph(), a.BuiltConfig, a.Substrate())
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(data, again) {
				t.Fatal("decode → encode is not the identity")
			}
		})
	}
}

// stripWorkers zeroes the deployment-only field New may carry.
func stripWorkers(c tmark.Config) tmark.Config {
	c.Workers = 0
	return c
}

func TestCompileDeterministic(t *testing.T) {
	g := dataset.DBLP(dataset.DefaultDBLPConfig(1))
	cfg := tmark.DefaultConfig()
	cfg.FeatureTopK = 4
	_, h1 := mustCompile(t, g, cfg)
	cfg.Workers = 3 // deployment knob: must not change identity
	_, h2 := mustCompile(t, g, cfg)
	if h1 != h2 {
		t.Fatalf("hash depends on build parallelism: %s vs %s", h1, h2)
	}
	cfg.Alpha = 0.9 // arithmetic knob: must change identity
	_, h3 := mustCompile(t, g, cfg)
	if h3 == h1 {
		t.Fatal("hash ignores Alpha")
	}
}

// TestCompileBytesPinned pins the content hash of fixed compiles to the
// values the per-element encoder produced: the built-in DBLP network
// with a CSR feature channel, the same network at Gamma = 0 (no W), and
// the example network with a dense W. TestCompileDeterministic compares
// two encodes made by one binary, so only this test catches an encoder
// rewrite that changes bytes. The values were computed on amd64, where
// Go never fuses a multiply and an add; other architectures may fuse
// them while building the substrate and so encode other bytes.
func TestCompileBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned hashes are amd64 values; %s may fuse multiply-adds", runtime.GOARCH)
	}
	dblp := dataset.DBLP(dataset.DefaultDBLPConfig(1))
	csr := tmark.DefaultConfig()
	csr.FeatureTopK = 4
	noW := csr
	noW.Gamma = 0
	for _, tc := range []struct {
		name string
		g    *hin.Graph
		cfg  tmark.Config
		want string
	}{
		{"dblp-csr", dblp, csr, "2a78ab9a3903af9f8ca950bffb6fb93e8677e138e0b1f2f09384d47f14f99b16"},
		{"dblp-noW", dblp, noW, "455eabe7772777eece77528b7553673a74d3d86502c431b532557780332793c4"},
		{"example-dense", dataset.Example(), tmark.DefaultConfig(), "2e62358f4f8bf17760befb5c86694dc9db8a93927c63a287d7db0bf3970fc8fc"},
	} {
		if _, h := mustCompile(t, tc.g, tc.cfg); h != tc.want {
			t.Errorf("%s: Compile hashes to %s, pinned %s", tc.name, h, tc.want)
		}
	}
}

func TestOpenMmapServesIdenticalModel(t *testing.T) {
	g := dataset.Example()
	cfg := tmark.DefaultConfig()
	data, hash := mustCompile(t, g, cfg)
	path := filepath.Join(t.TempDir(), "m.tmar")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if a.ContentHash() != hash {
		t.Fatalf("content hash %s, want %s", a.ContentHash(), hash)
	}
	raw, err := tmark.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	activated, err := a.Activate(a.BuiltConfig)
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	sameResults(t, raw.Run(), activated.Run())
}

// TestActivatedModelSurvivesBlobRewrite: a model activated from a
// registry blob serves from the bytes OpenRef read and verified, so a
// rewrite of the blob file in place after activation — one bit of one
// stored R probability, every byte set to 0xff, or a truncation to 0
// bytes — changes neither its answers nor its artifact's content hash.
func TestActivatedModelSurvivesBlobRewrite(t *testing.T) {
	cfg := tmark.DefaultConfig()
	cfg.FeatureTopK = 8
	data, hash := mustCompile(t, dataset.DBLP(dataset.DefaultDBLPConfig(1)), cfg)
	_, secs, seen, err := parseContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	// The top mantissa bit of the middle stored R probability.
	rp := secs[seen[secRP]]
	flipAt := int64(rp.off + rp.len/16*8 + 6)
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		rewrite func(*os.File) error
	}{
		{"flip-one-R-probability-bit", func(f *os.File) error {
			_, err := f.WriteAt([]byte{data[flipAt] ^ 0x08}, flipAt)
			return err
		}},
		{"all-0xff", func(f *os.File) error {
			_, err := f.WriteAt(bytes.Repeat([]byte{0xff}, len(data)), 0)
			return err
		}},
		{"truncate-to-0", func(f *os.File) error { return f.Truncate(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Put rewrites a damaged blob, so each case starts intact.
			if _, err := reg.Put(data); err != nil {
				t.Fatal(err)
			}
			a, _, err := reg.OpenRef(Ref{Hash: hash})
			if err != nil {
				t.Fatalf("OpenRef: %v", err)
			}
			m, err := a.Activate(a.BuiltConfig)
			if err != nil {
				t.Fatalf("Activate: %v", err)
			}
			want := m.Run()

			f, err := os.OpenFile(reg.BlobPath(hash), os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.rewrite(f); err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			sameResults(t, want, m.Run())
			if got := a.ContentHash(); got != hash {
				t.Fatalf("content hash %s after the rewrite, want %s", got, hash)
			}
		})
	}
}

func TestCompatibleWith(t *testing.T) {
	g := dataset.Example()

	noW := tmark.DefaultConfig()
	noW.Gamma = 0
	data, _ := mustCompile(t, g, noW)
	a, err := DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Activate(tmark.DefaultConfig()); err == nil {
		t.Fatal("artifact without W activated a Gamma>0 config")
	}

	csr := tmark.DefaultConfig()
	csr.FeatureTopK = 2
	data, _ = mustCompile(t, g, csr)
	if a, err = DecodeBytes(data); err != nil {
		t.Fatal(err)
	}
	other := csr
	other.FeatureTopK = 3
	if _, err := a.Activate(other); err == nil {
		t.Fatal("artifact activated across a FeatureTopK mismatch")
	}
	// Hyper-parameter overrides that keep the channel shape reuse the
	// substrate — and genuinely change the arithmetic.
	override := csr
	override.Alpha = 0.9
	m, err := a.Activate(override)
	if err != nil {
		t.Fatalf("override activation: %v", err)
	}
	base, err := a.Activate(csr)
	if err != nil {
		t.Fatal(err)
	}
	if m.Run().Classes[0].X[0] == base.Run().Classes[0].X[0] {
		t.Fatal("alpha override did not change the solution")
	}
	// Gamma 0 ignores the stored channel entirely.
	if _, err := a.Activate(noW); err != nil {
		t.Fatalf("Gamma 0 activation: %v", err)
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	data, _ := mustCompile(t, dataset.Example(), tmark.DefaultConfig())

	damage := map[string]func([]byte) []byte{
		"truncated-header":  func(b []byte) []byte { return b[:10] },
		"truncated-half":    func(b []byte) []byte { return b[:len(b)/2] },
		"truncated-tail":    func(b []byte) []byte { return b[:len(b)-3] },
		"flipped-magic":     func(b []byte) []byte { b[0] ^= 0xff; return b },
		"flipped-payload":   func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
		"flipped-crc":       func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"zeroed-table":      func(b []byte) []byte { copy(b[16:40], make([]byte, 24)); return b },
		"appended-garbage":  func(b []byte) []byte { return append(b, 0xde, 0xad) },
		"empty":             func([]byte) []byte { return nil },
		"section-count-max": func(b []byte) []byte { b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0xff; return b },
	}
	for name, f := range damage {
		t.Run(name, func(t *testing.T) {
			hurt := f(append([]byte(nil), data...))
			if _, err := DecodeBytes(hurt); err == nil {
				t.Fatal("damaged artifact decoded")
			}
		})
	}
	// And the pristine copy still decodes (the damage helpers didn't
	// mutate the shared original).
	if _, err := DecodeBytes(data); err != nil {
		t.Fatalf("pristine artifact rejected: %v", err)
	}
}
