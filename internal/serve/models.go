package serve

// Model sourcing. A warm model comes from one of three places: the
// committed version of a live ingest engine, already in memory (what
// name-only requests for an ingesting model resolve to); an artifact
// blob resolved through the registry (mmap + verify + O(1) assemble);
// or a raw build from a loaded graph (the cold path, also the fallback
// when a resolved blob fails verification). Every entry carries the
// content hash of the substrate it serves, echoed in every response,
// so a client can pin the exact model that answered with
// model@sha256:….

import (
	"fmt"
	"net/http"
	"sort"

	"tmark/internal/artifact"
	"tmark/internal/fault"
	"tmark/internal/tmark"
)

// contentHash renders the entry's substrate identity for responses.
func (e *warmModel) contentHash() string {
	if e.hash == "" {
		return ""
	}
	return "sha256:" + e.hash
}

// buildModel is the cache's build function: the engine's in-memory
// version when the key names exactly that version and config, artifact
// activation when the key resolved to any other blob, raw graph build
// otherwise — and, when a resolved blob turns out corrupt, truncated or
// incompatible, the raw build as fallback so a damaged model store
// degrades to slow cold starts instead of an outage.
func (s *Server) buildModel(key modelKey) (buildResult, error) {
	var actErr error
	if key.hash != "" {
		if eng := s.engine(key.name); eng != nil && key.cfg == eng.Config() {
			// The engine holds this version in memory, exactly as it
			// encoded, hashed and sealed it: serve that, with no blob to
			// map, checksum or verify. Like any build from the engine, it
			// counts as an artifact miss.
			if v := eng.Current(); v.Hash == key.hash {
				s.met.artifactMisses.Inc()
				return buildResult{model: v.Model, hash: v.Hash}, nil
			}
		}
		br, err := s.activateArtifact(key)
		if err == nil {
			s.met.artifactHits.Inc()
			return br, nil
		}
		s.met.artifactFails.Inc()
		if key.name == "" {
			// Nothing to rebuild from: the reference named only bytes.
			return buildResult{}, fmt.Errorf("serve: artifact sha256:%s failed verification with no graph fallback: %w", key.hash, err)
		}
		actErr = err
	}
	g, ok := s.opts.Datasets[key.name]
	if !ok {
		return buildResult{}, fmt.Errorf("serve: unknown model %q", key.name)
	}
	if key.hash == "" {
		s.met.artifactMisses.Inc()
	}
	if eng := s.engine(key.name); eng != nil {
		// The loaded graph froze at startup; once a live ingest engine
		// exists for the name, deltas may have moved the model past it,
		// and a raw rebuild would silently serve pre-ingest data. The
		// engine's current sealed version is the truth.
		br, err := s.buildFromEngine(eng, key)
		if err == nil || actErr == nil {
			return br, err
		}
		return br, fmt.Errorf("%w (after artifact fallback: %v)", err, actErr)
	}
	m, err := tmark.New(g, key.cfg)
	if err != nil {
		if actErr != nil {
			err = fmt.Errorf("%w (after artifact fallback: %v)", err, actErr)
		}
		return buildResult{}, err
	}
	// The canonical encoding names the rebuilt model too: deterministic
	// compilation means a rebuild and the blob `tmark build` would write
	// share one identity, so responses stay pinnable either way.
	data, err := artifact.EncodeModel(g, key.cfg, m.Substrate())
	if err != nil {
		return buildResult{}, err
	}
	return buildResult{model: m, hash: artifact.Hash(data)}, nil
}

// activateArtifact opens, verifies and assembles the blob a key
// resolved to. Every failure — unreadable file, truncation, checksum or
// content-hash mismatch, incompatible stored channel — comes back as an
// error for buildModel's fallback logic; none of them can produce a
// model that serves wrong answers, because nothing unverified reaches
// the kernels.
func (s *Server) activateArtifact(key modelKey) (buildResult, error) {
	a, _, err := s.registry.OpenRef(artifact.Ref{Hash: key.hash})
	if err != nil {
		return buildResult{}, err
	}
	if fault.Enabled() {
		if err := fault.Check(fault.ArtifactActivate); err != nil {
			a.Close()
			return buildResult{}, err
		}
	}
	// FeatureTopK shapes the compiled channel and has no per-request
	// override, so an activation adopts the artifact's value — the
	// server's -topk only governs raw builds. A Gamma mismatch (config
	// wants a feature channel, artifact stores none) still fails:
	// Gamma is request-controlled arithmetic the substrate cannot fake.
	cfg := key.cfg
	cfg.FeatureTopK = a.BuiltConfig.FeatureTopK
	m, err := a.Activate(cfg)
	if err != nil {
		a.Close()
		return buildResult{}, err
	}
	return buildResult{model: m, hash: key.hash, art: a}, nil
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
	// "artifact" (mmap activation), "graph" (raw build), or
	// "artifact+graph" (activation with rebuild fallback).
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
