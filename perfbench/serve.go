package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"time"

	"tmark/internal/obs"
	"tmark/internal/tmark"
)

// benchConfig is the model configuration every workload serves or
// solves: the defaults, with the top-K sparsified feature channel that
// deployments run (tmarkd -topk 16). Workers stays at its default,
// GOMAXPROCS.
func benchConfig() tmark.Config {
	cfg := tmark.DefaultConfig()
	cfg.FeatureTopK = 16
	return cfg
}

// post calls h in-process — no sockets — and returns the status and
// body.
func post(h http.Handler, path string, body []byte, header map[string]string) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// serveCounters is a reading of the server's own metrics from the
// obs.Registry passed in through serve.Options.Registry.
type serveCounters struct {
	batches, batchedReqs, rejected int64
	batchSolve                     time.Duration
	batchSolveCalls                int64
}

func readServeCounters(reg *obs.Registry) serveCounters {
	t := reg.Timer("tmarkd_batch_solve")
	return serveCounters{
		batches:         reg.Counter("tmarkd_batches_total").Load(),
		batchedReqs:     reg.Counter("tmarkd_batched_requests_total").Load(),
		rejected:        reg.Counter("tmarkd_rejected_total").Load(),
		batchSolve:      t.Total(),
		batchSolveCalls: t.Count(),
	}
}

// since is the change from an earlier reading.
func (c serveCounters) since(old serveCounters) serveCounters {
	return serveCounters{
		batches:         c.batches - old.batches,
		batchedReqs:     c.batchedReqs - old.batchedReqs,
		rejected:        c.rejected - old.rejected,
		batchSolve:      c.batchSolve - old.batchSolve,
		batchSolveCalls: c.batchSolveCalls - old.batchSolveCalls,
	}
}

// widthMean is the mean coalesced batch width.
func (c serveCounters) widthMean() float64 {
	if c.batches == 0 {
		return 0
	}
	return float64(c.batchedReqs) / float64(c.batches)
}

// batchSolveMs is the mean wall time of one batch solve.
func (c serveCounters) batchSolveMs() float64 {
	if c.batchSolveCalls == 0 {
		return 0
	}
	return float64(c.batchSolve) / float64(c.batchSolveCalls) / float64(time.Millisecond)
}
