package artifact

import (
	"testing"

	"tmark/internal/dataset"
	"tmark/internal/tmark"
)

// BenchmarkColdStart measures the two ways a serving process gets a
// warm model: the raw build (full tensor normalisation — counting
// sorts over every relation slice plus the feature channel) and
// artifact activation (read, checksum, strict decode, assemble). The
// headline rows are the top-K sparse feature channel — the
// configuration any non-toy deployment runs, since the dense W is
// O(n²) memory — where activation skips the cosine pass entirely. The
// dense row is kept as the honest lower bound: there activation is
// dominated by reading, checksumming and scanning the n×n W section.
func BenchmarkColdStart(b *testing.B) {
	cases := []struct {
		name string
		spec string
		topK int
	}{
		{"dblp-topk8", "dblp", 8},
		{"movies-topk8", "movies", 8},
		{"dblp-dense", "dblp", 0},
	}
	for _, c := range cases {
		g, err := dataset.LoadSpec(c.spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg := tmark.DefaultConfig()
		cfg.Workers = 1 // single-threaded: measure work, not scheduling
		cfg.FeatureTopK = c.topK
		blob, hash, err := Compile(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		reg, err := OpenRegistry(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := reg.Put(blob); err != nil {
			b.Fatal(err)
		}
		path := reg.BlobPath(hash)

		b.Run(c.name+"/rebuild", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tmark.New(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/activate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := Open(path)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.Activate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
