package serve

// Model sourcing. One function, source, decides which bytes answer a
// model reference, one rule per kind of reference:
//
//   - A pin (name@sha256:… or sha256:…) keys on its hash alone and is
//     answered only by bytes that hash to it: the live engine's
//     committed version when it is that version, else the verified
//     blob, else a rebuild of the loaded graph that reproduces the hash.
//   - A floating name with a live ingest engine keys on the version the
//     engine had committed when the request resolved, served from that
//     version's memory.
//   - A floating name the registry knows activates its blob (read +
//     verify + O(1) assemble), with the loaded graph as the rebuild
//     fallback.
//   - Any other name builds from its loaded graph.
//
// A key never outlives the bytes it names, so nothing is invalidated
// when an ingest commits a version: the next floating read keys on the
// new one and older entries age out of the LRU. Every entry carries the
// content hash of the substrate it serves, echoed in every response, so
// a client can pin the exact model that answered with model@sha256:….

import (
	"errors"
	"fmt"
	"net/http"
	"sort"

	"tmark/internal/artifact"
	"tmark/internal/fault"
	"tmark/internal/hin"
	"tmark/internal/stream"
	"tmark/internal/tmark"
)

// contentHash renders the entry's substrate identity for responses.
func (e *warmModel) contentHash() string {
	if e.hash == "" {
		return ""
	}
	return "sha256:" + e.hash
}

// builder builds the warm model of one cache key.
type builder func() (buildResult, error)

// source resolves the model reference name under config cfg to the
// cache key naming the bytes that answer it and the builder producing
// them, or to the HTTP status and error of a reference that names no
// servable model.
func (s *Server) source(name string, cfg tmark.Config) (modelKey, builder, int, error) {
	ref, err := artifact.ParseRef(name)
	if err != nil {
		// New holds every dataset name to the reference grammar, so a
		// malformed reference names no model.
		return modelKey{}, nil, http.StatusNotFound, fmt.Errorf("unknown model %q", name)
	}
	g := s.opts.Datasets[ref.Name]
	if eng := s.engine(ref.Name); eng != nil {
		// A floating name reads the committed version, not refs/<name>: the
		// engine re-tags that mid-apply, before the version commits, and
		// reading it costs a file read per request. A pin of that version
		// is answered from it too.
		if v := eng.Current(); ref.Hash == "" || ref.Hash == v.Hash {
			return modelKey{hash: v.Hash, cfg: cfg}, func() (buildResult, error) { return s.fromVersion(v, cfg) }, http.StatusOK, nil
		}
	}
	if s.registry != nil {
		switch h, err := s.registry.Resolve(ref); {
		case err == nil:
			key := modelKey{hash: h, cfg: cfg}
			rebuild := func() (buildResult, error) { return s.reproduce(g, h, cfg) }
			if ref.Hash == "" {
				// A floating name falls back to whatever its graph rebuilds
				// to, so it keys apart from the pins of the blob it names.
				key.name = ref.Name
				rebuild = func() (buildResult, error) { return fromGraph(g, cfg) }
			}
			if g == nil {
				rebuild = nil
			}
			return key, func() (buildResult, error) { return s.fromBlob(h, cfg, rebuild) }, http.StatusOK, nil
		case !errors.Is(err, artifact.ErrNotFound):
			return modelKey{}, nil, http.StatusInternalServerError, err
		}
	}
	if g == nil || ref.Hash != "" {
		// A pin nothing here holds names no model: a rebuild is tried only
		// for a pin whose blob is on file.
		return modelKey{}, nil, http.StatusNotFound, fmt.Errorf("unknown model %q", name)
	}
	return modelKey{name: ref.Name, cfg: cfg}, func() (buildResult, error) {
		s.met.artifactMisses.Inc()
		return fromGraph(g, cfg)
	}, http.StatusOK, nil
}

// fromVersion serves an engine's committed version from memory, exactly
// as the engine encoded, hashed and sealed it, with no blob to read,
// checksum or verify. It echoes the version's hash under any config, as
// an activation of the version's blob does, and counts as an artifact
// miss, as a graph build does.
func (s *Server) fromVersion(v *stream.Version, cfg tmark.Config) (buildResult, error) {
	s.met.artifactMisses.Inc()
	m, err := withConfig(v.Model, cfg)
	if err != nil {
		return buildResult{}, err
	}
	return buildResult{model: m, hash: v.Hash}, nil
}

// fromBlob activates the blob filed under hash. When the blob turns out
// corrupt, truncated or incompatible, rebuild stands in, so a damaged
// model store degrades to slow cold starts instead of an outage; with no
// rebuild the failure is the answer.
func (s *Server) fromBlob(hash string, cfg tmark.Config, rebuild builder) (buildResult, error) {
	br, actErr := s.activate(hash, cfg)
	if actErr == nil {
		s.met.artifactHits.Inc()
		return br, nil
	}
	s.met.artifactFails.Inc()
	if rebuild == nil {
		return buildResult{}, fmt.Errorf("serve: artifact sha256:%s failed verification with no graph fallback: %w", hash, actErr)
	}
	br, err := rebuild()
	if err != nil {
		return buildResult{}, fmt.Errorf("%w (after artifact fallback: %v)", err, actErr)
	}
	return br, nil
}

// reproduce rebuilds a pinned version from its loaded graph. The pin
// fixes the bytes, so the rebuild runs under the server's own config —
// the one every version this server seals is compiled under — and serves
// only if its canonical encoding hashes to the pin; cfg then assembles
// over the rebuilt substrate, as it would over the blob's.
func (s *Server) reproduce(g *hin.Graph, hash string, cfg tmark.Config) (buildResult, error) {
	br, err := fromGraph(g, s.opts.Config)
	if err != nil {
		return buildResult{}, err
	}
	if br.hash != hash {
		return buildResult{}, fmt.Errorf("serve: the loaded graph rebuilds to sha256:%s, not the pinned sha256:%s", br.hash, hash)
	}
	if br.model, err = withConfig(br.model, cfg); err != nil {
		return buildResult{}, err
	}
	return br, nil
}

// fromGraph builds the model for (g, cfg) from scratch. The canonical
// encoding names it: deterministic compilation means a rebuild and the
// blob `tmark build` would write share one identity, so responses stay
// pinnable either way.
func fromGraph(g *hin.Graph, cfg tmark.Config) (buildResult, error) {
	m, err := tmark.New(g, cfg)
	if err != nil {
		return buildResult{}, err
	}
	data, err := artifact.EncodeModel(g, cfg, m.Substrate())
	if err != nil {
		return buildResult{}, err
	}
	return buildResult{model: m, hash: artifact.Hash(data)}, nil
}

// withConfig serves cfg over m's substrate: m itself under its own
// config, else a model assembled over the same immutable O, R and W,
// which depend on the adjacency and features, not the runtime knobs.
func withConfig(m *tmark.Model, cfg tmark.Config) (*tmark.Model, error) {
	if cfg == m.Config() {
		return m, nil
	}
	return tmark.Assemble(m.Graph(), cfg, m.Substrate())
}

// activate reads, verifies and assembles the blob filed under hash.
// Every failure — unreadable file, truncation, checksum or content-hash
// mismatch, incompatible stored channel — comes back as an error for
// fromBlob's fallback; none of them can produce a model that serves
// wrong answers, because nothing unverified reaches the kernels. The
// model serves from the bytes that were verified, so a later rewrite
// of the blob on disk cannot change its answers.
func (s *Server) activate(hash string, cfg tmark.Config) (buildResult, error) {
	a, _, err := s.registry.OpenRef(artifact.Ref{Hash: hash})
	if err != nil {
		return buildResult{}, err
	}
	if fault.Enabled() {
		if err := fault.Check(fault.ArtifactActivate); err != nil {
			return buildResult{}, err
		}
	}
	// FeatureTopK shapes the compiled channel and has no per-request
	// override, so an activation adopts the artifact's value — the
	// server's -topk only governs raw builds. A Gamma mismatch (config
	// wants a feature channel, artifact stores none) still fails:
	// Gamma is request-controlled arithmetic the substrate cannot fake.
	cfg.FeatureTopK = a.BuiltConfig.FeatureTopK
	m, err := a.Activate(cfg)
	if err != nil {
		return buildResult{}, err
	}
	return buildResult{model: m, hash: hash}, nil
}

// ModelInfo is one /v1/models listing entry.
type ModelInfo struct {
	// Name is the model's reference name; empty for an untagged blob
	// reachable only by hash.
	Name string `json:"name,omitempty"`
	// Hash is the content hash (sha256:…) the name currently resolves
	// to; empty for a graph-only model that has never been compiled.
	Hash string `json:"hash,omitempty"`
	// Source tells where queries against this model are served from:
	// "artifact" (activation of the verified blob), "graph" (raw build),
	// or "artifact+graph" (activation with rebuild fallback).
	Source string `json:"source"`
	// Default marks the model serving requests that name none.
	Default bool `json:"default,omitempty"`
}

// ModelsResponse is the wire form of a /v1/models answer.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

// handleModels lists every model the server can resolve: loaded graphs,
// registry references, and the untagged blobs of the model directory.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	s.met.requests.Inc()
	byName := map[string]*ModelInfo{}
	var infos []*ModelInfo
	for name := range s.opts.Datasets {
		mi := &ModelInfo{Name: name, Source: "graph"}
		byName[name] = mi
		infos = append(infos, mi)
	}
	if s.registry != nil {
		listed, err := s.registry.List()
		if err != nil {
			s.met.errors.Inc()
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		for _, ref := range listed {
			if artifact.IsShardRefName(ref.Name) {
				// Legacy shard blobs are sub-tensor slices, not
				// models a /v1/classify can target.
				continue
			}
			if mi, ok := byName[ref.Name]; ok && ref.Name != "" {
				mi.Hash = "sha256:" + ref.Hash
				mi.Source = "artifact+graph"
				continue
			}
			mi := &ModelInfo{Name: ref.Name, Hash: "sha256:" + ref.Hash, Source: "artifact"}
			if ref.Name != "" {
				byName[ref.Name] = mi
			}
			infos = append(infos, mi)
		}
	}
	sort.Slice(infos, func(i, j int) bool {
		if (infos[i].Name == "") != (infos[j].Name == "") {
			return infos[j].Name == "" // named first, blobs last
		}
		if infos[i].Name != infos[j].Name {
			return infos[i].Name < infos[j].Name
		}
		return infos[i].Hash < infos[j].Hash
	})
	resp := &ModelsResponse{}
	for _, mi := range infos {
		mi.Default = mi.Name != "" && mi.Name == s.opts.Default
		resp.Models = append(resp.Models, *mi)
	}
	writeJSON(w, http.StatusOK, resp)
}
