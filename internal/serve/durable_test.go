package serve

// Tests for the durable-ingest serve surface: Idempotency-Key handling
// on /v1/ingest, machine-readable 503 reason bodies, write-ahead-log
// replay across a server restart, and the startup registry scrub
// racing hash-pinned readers.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"tmark/internal/fault"
)

// postIngestKeyed is postIngest with an Idempotency-Key header.
func postIngestKeyed(t *testing.T, s *Server, key string, req any) (*httptest.ResponseRecorder, *IngestResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
	if key != "" {
		hr.Header.Set("Idempotency-Key", key)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, hr)
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var out IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode ingest response: %v\n%s", err, rec.Body.String())
	}
	return rec, &out
}

// errorBody decodes a non-2xx answer's JSON envelope.
func errorBody(t *testing.T, rec *httptest.ResponseRecorder) ErrorResponse {
	t.Helper()
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("decode error body: %v\n%s", err, rec.Body.String())
	}
	return e
}

// TestIngestIdempotencyKey: a resent key is answered with the original
// sealed version — Duplicate set, nothing re-applied — an oversized key
// rejects before anything runs, and a batch the log fails to take is
// the server's 500, not the client's 400.
func TestIngestIdempotencyKey(t *testing.T) {
	t.Cleanup(fault.Reset)
	s := newTestServer(t, testGraph(20), fastConfig(), func(o *Options) {
		o.ModelDir = t.TempDir()
		o.WALDir = t.TempDir()
	})
	first := &IngestRequest{Model: "test", Deltas: ingestDeltas(0)}
	rec, res := postIngestKeyed(t, s, "batch-7", first)
	if res == nil {
		t.Fatalf("keyed ingest failed: %d %s", rec.Code, rec.Body.String())
	}
	if res.Duplicate {
		t.Fatal("first send marked duplicate")
	}

	_, dup := postIngestKeyed(t, s, "batch-7", first)
	if dup == nil {
		t.Fatal("duplicate send failed")
	}
	if !dup.Duplicate || dup.NewHash != res.NewHash || dup.Seq != res.Seq {
		t.Fatalf("duplicate answer %+v, want the original %+v", dup, res)
	}
	if got := s.engine("test").Current().Seq; got != 1 {
		t.Fatalf("duplicate key advanced the engine to seq %d", got)
	}
	// A different key is a different batch.
	_, next := postIngestKeyed(t, s, "batch-8", &IngestRequest{Model: "test", Deltas: ingestDeltas(1)})
	if next == nil || next.Duplicate || next.Seq != 2 {
		t.Fatalf("fresh key: %+v", next)
	}

	rec, _ = postIngestKeyed(t, s, strings.Repeat("k", 257), first)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized key: status %d, want 400", rec.Code)
	}

	remove := fault.InjectErr(fault.WALAppend, func() error { return errors.New("disk full") })
	third := &IngestRequest{Model: "test", Deltas: ingestDeltas(2)}
	rec, _ = postIngestKeyed(t, s, "batch-9", third)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("failed WAL append: status %d, want 500 (%s)", rec.Code, rec.Body.String())
	}
	if got := s.engine("test").Current().Seq; got != 2 {
		t.Fatalf("failed WAL append moved the engine to seq %d", got)
	}
	remove()
	if _, res := postIngestKeyed(t, s, "batch-9", third); res == nil || res.Duplicate || res.Seq != 3 {
		t.Fatalf("batch after the WAL recovered: %+v", res)
	}
}

// TestUnavailableReasons pins the machine-readable 503 bodies: each
// shed class names itself so clients can tell quarantine from draining
// from ordinary overload without parsing prose.
func TestUnavailableReasons(t *testing.T) {
	t.Cleanup(fault.Reset)

	t.Run("quarantined", func(t *testing.T) {
		// No WALDir: the quarantine cannot self-heal, so it stays visible.
		s := newTestServer(t, testGraph(20), fastConfig(), nil)
		remove := fault.Inject(fault.StreamApply, fault.Once(func(...any) { panic("chaos: ingest crash") }))
		defer remove()
		rec, _ := postIngest(t, s, &IngestRequest{Model: "test", Deltas: ingestDeltas(0)})
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", rec.Code)
		}
		if e := errorBody(t, rec); e.Reason != ReasonQuarantined {
			t.Fatalf("reason %q, want %q (%s)", e.Reason, ReasonQuarantined, rec.Body.String())
		}
	})

	t.Run("draining", func(t *testing.T) {
		s := newTestServer(t, testGraph(20), fastConfig(), nil)
		s.Drain()
		rec, _ := postIngest(t, s, &IngestRequest{Model: "test", Deltas: ingestDeltas(0)})
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", rec.Code)
		}
		if e := errorBody(t, rec); e.Reason != ReasonDraining {
			t.Fatalf("reason %q, want %q", e.Reason, ReasonDraining)
		}
		rec2 := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if rec2.Code != http.StatusServiceUnavailable {
			t.Fatalf("readyz status %d, want 503", rec2.Code)
		}
		var e ErrorResponse
		if err := json.Unmarshal(rec2.Body.Bytes(), &e); err != nil || e.Reason != ReasonDraining {
			t.Fatalf("readyz reason %q (%v), want %q", e.Reason, err, ReasonDraining)
		}
	})

	t.Run("overloaded", func(t *testing.T) {
		s := newTestServer(t, testGraph(20), fastConfig(), nil)
		// A panicked build surfaces as ErrModelFault — transient by
		// construction, shed as ordinary overload.
		remove := fault.Inject(fault.ServeModelBuild, fault.Once(func(...any) { panic("chaos: build blew up") }))
		defer remove()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify",
			strings.NewReader(`{"model":"test","seeds":[0]}`)))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503 (%s)", rec.Code, rec.Body.String())
		}
		if e := errorBody(t, rec); e.Reason != ReasonOverloaded {
			t.Fatalf("reason %q, want %q", e.Reason, ReasonOverloaded)
		}
	})
}

// TestServerWALRestartReplays is the daemon-level kill -9 drill: a
// second server over the same model and WAL directories replays the
// log at startup and serves exactly the versions the first one sealed.
func TestServerWALRestartReplays(t *testing.T) {
	modelDir, walDir := t.TempDir(), t.TempDir()
	opts := func(o *Options) {
		o.ModelDir = modelDir
		o.WALDir = walDir
	}
	s1 := newTestServer(t, testGraph(20), fastConfig(), opts)
	var last *IngestResponse
	for b := 0; b < 3; b++ {
		rec, res := postIngest(t, s1, &IngestRequest{Model: "test", Deltas: ingestDeltas(b)})
		if res == nil {
			t.Fatalf("ingest %d: %d %s", b, rec.Code, rec.Body.String())
		}
		last = res
	}

	// "Restart": no handoff, no shutdown hook — only what the WAL and the
	// registry hold on disk.
	s2 := newTestServer(t, testGraph(20), fastConfig(), opts)
	eng := s2.engine("test")
	if eng == nil {
		t.Fatal("restarted server did not eagerly replay the wal")
	}
	if got := "sha256:" + eng.Current().Hash; got != last.NewHash || eng.Current().Seq != 3 {
		t.Fatalf("replayed engine at seq %d hash %s, want seq 3 hash %s",
			eng.Current().Seq, got, last.NewHash)
	}
	code, hash := classifyHash(t, s2, "test", 0)
	if code != http.StatusOK || hash != last.NewHash {
		t.Fatalf("classify after restart: status %d hash %s, want 200 %s", code, hash, last.NewHash)
	}
	// The idempotency window replayed too: resending a committed batch's
	// key to the new process must not double-apply it.
	rec, res := postIngestKeyed(t, s2, "rebatch", &IngestRequest{Model: "test", Deltas: ingestDeltas(3)})
	if res == nil {
		t.Fatalf("keyed ingest on restarted server: %d %s", rec.Code, rec.Body.String())
	}
	_, dup := postIngestKeyed(t, s2, "rebatch", &IngestRequest{Model: "test", Deltas: ingestDeltas(3)})
	if dup == nil || !dup.Duplicate || dup.NewHash != res.NewHash {
		t.Fatalf("restarted server re-applied a known key: %+v", dup)
	}
}

// TestScrubRacesPinnedReaders is the satellite contract: a scrub that
// quarantines a damaged blob and rolls its ref back must not disturb
// readers pinned to an intact version's content hash — blobs are
// immutable and quarantine is a rename, so pinned reads never waver.
func TestScrubRacesPinnedReaders(t *testing.T) {
	s := newTestServer(t, testGraph(20), fastConfig(), func(o *Options) {
		o.ModelDir = t.TempDir()
	})
	_, r1 := postIngest(t, s, &IngestRequest{Model: "test", Deltas: ingestDeltas(0)})
	if r1 == nil {
		t.Fatal("first ingest failed")
	}
	_, r2 := postIngest(t, s, &IngestRequest{Model: "test", Deltas: ingestDeltas(1)})
	if r2 == nil {
		t.Fatal("second ingest failed")
	}
	// Warm the pinned entry, then damage the newest blob on disk.
	if code, hash := classifyHash(t, s, r1.NewHash, 0); code != http.StatusOK || hash != r1.NewHash {
		t.Fatalf("pinned classify before scrub: %d %s", code, hash)
	}
	rawHash2 := strings.TrimPrefix(r2.NewHash, "sha256:")
	blob, err := os.ReadFile(s.registry.BlobPath(rawHash2))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(s.registry.BlobPath(rawHash2), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				code, hash := classifyHash(t, s, r1.NewHash, seed)
				if code != http.StatusOK || hash != r1.NewHash {
					t.Errorf("pinned read during scrub: status %d hash %s, want 200 %s", code, hash, r1.NewHash)
					return
				}
			}
		}(r)
	}
	rep, err := s.registry.Scrub()
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != rawHash2 {
		t.Fatalf("Corrupt = %v, want [%s]", rep.Corrupt, rawHash2)
	}
	// The pinned version still serves after the scrub's ref rollback.
	if code, hash := classifyHash(t, s, r1.NewHash, 0); code != http.StatusOK || hash != r1.NewHash {
		t.Fatalf("pinned classify after scrub: %d %s", code, hash)
	}
}

// TestServerScrubOption: with ScrubRegistry set, startup heals a
// pre-damaged registry and reports it; a healthy registry reports
// clean.
func TestServerScrubOption(t *testing.T) {
	modelDir := t.TempDir()
	s1 := newTestServer(t, testGraph(20), fastConfig(), func(o *Options) {
		o.ModelDir = modelDir
	})
	_, r1 := postIngest(t, s1, &IngestRequest{Model: "test", Deltas: ingestDeltas(0)})
	if r1 == nil {
		t.Fatal("ingest failed")
	}
	raw := strings.TrimPrefix(r1.NewHash, "sha256:")
	blob, err := os.ReadFile(s1.registry.BlobPath(raw))
	if err != nil {
		t.Fatal(err)
	}
	blob[0] ^= 0xff
	if err := os.WriteFile(s1.registry.BlobPath(raw), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, testGraph(20), fastConfig(), func(o *Options) {
		o.ModelDir = modelDir
		o.ScrubRegistry = true
	})
	rep := s2.ScrubReport()
	if rep == nil || !rep.Dirty() {
		t.Fatalf("startup scrub missed the damage: %+v", rep)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != raw {
		t.Fatalf("Corrupt = %v, want [%s]", rep.Corrupt, raw)
	}
	// Without the option the server must not touch the registry.
	s3 := newTestServer(t, testGraph(20), fastConfig(), func(o *Options) {
		o.ModelDir = modelDir
	})
	if s3.ScrubReport() != nil {
		t.Fatal("scrub ran without ScrubRegistry")
	}
}
