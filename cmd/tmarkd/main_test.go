package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmark/internal/dataset"
	"tmark/internal/fault"
	"tmark/internal/serve"
)

func TestDatasetListSet(t *testing.T) {
	var d datasetList
	if err := d.Set("a=example"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if err := d.Set("b=net.json"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	for _, bad := range []string{"", "noequals", "=path", "name="} {
		if err := d.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted, want error", bad)
		}
	}
	if err := d.Set("a=other"); err == nil {
		t.Errorf("duplicate name accepted, want error")
	}
	if got := d.String(); got != "a=example,b=net.json" {
		t.Errorf("String() = %q", got)
	}
}

func TestLoadDatasetBuiltins(t *testing.T) {
	for _, name := range []string{"example", "dblp", "movies", "nus", "acm"} {
		g, err := dataset.LoadSpec(name, 1)
		if err != nil {
			t.Errorf("builtin %s: %v", name, err)
			continue
		}
		if g.N() == 0 {
			t.Errorf("builtin %s: empty graph", name)
		}
	}
	if _, err := dataset.LoadSpec("nope", 1); err == nil {
		t.Error("unknown builtin accepted")
	}
	if _, err := dataset.LoadSpec("net.parquet", 1); err == nil {
		t.Error("unsupported extension accepted")
	}
	if _, err := dataset.LoadSpec("missing.json", 1); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadDatasetFiles(t *testing.T) {
	dir := t.TempDir()

	jsonPath := filepath.Join(dir, "net.json")
	if err := dataset.Example().SaveFile(jsonPath); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	g, err := dataset.LoadSpec(jsonPath, 1)
	if err != nil {
		t.Fatalf("load .json: %v", err)
	}
	if g.N() != dataset.Example().N() {
		t.Errorf(".json round trip: %d nodes, want %d", g.N(), dataset.Example().N())
	}

	csvPath := filepath.Join(dir, "net.csv")
	if err := os.WriteFile(csvPath, []byte("from,to,relation,weight\na,b,r,1\nb,a,r,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if g, err = dataset.LoadSpec(csvPath, 1); err != nil {
		t.Fatalf("load .csv: %v", err)
	} else if g.N() != 2 {
		t.Errorf(".csv: %d nodes, want 2", g.N())
	}

	cooPath := filepath.Join(dir, "net.coo")
	if err := os.WriteFile(cooPath, []byte("coo 3 1 2\nl 0 0\nl 2 1\ne 0 0 1\ne 0 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if g, err = dataset.LoadSpec(cooPath, 1); err != nil {
		t.Fatalf("load .coo: %v", err)
	} else if g.N() != 3 || g.Q() != 2 {
		t.Errorf(".coo: (%d nodes, %d classes), want (3, 2)", g.N(), g.Q())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	ctx := context.Background()
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"-dataset", "broken"},
		{"-dataset", "x=missing.json"},
		{"-dataset", "x=example", "-default", "y"},
		{"-dataset", "x=example", "x_trailing_arg"},
		{"-dataset", "x=example", "-alpha", "2"},
	}
	for _, args := range cases {
		if err := run(ctx, args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunServesAndDrains drives the full wiring in-process: run() on a
// real port with a .coo dataset, a /v1/classify round trip, then a context
// cancellation standing in for SIGTERM.
func TestRunServesAndDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port for run; re-bind races are unlikely in-process

	cooPath := filepath.Join(t.TempDir(), "net.coo")
	coo := "coo 6 2 2\nl 0 0\nl 1 1\ne 0 0 2\ne 0 2 4\ne 0 1 3\ne 0 3 5\ne 1 4 5\ne 1 5 0\n"
	if err := os.WriteFile(cooPath, []byte(coo), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	var logs bytes.Buffer
	go func() {
		done <- run(ctx, []string{
			"-addr", addr,
			"-dataset", "tiny=" + cooPath,
			"-workers", "1",
			"-drain-timeout", "5s",
		}, &logs)
	}()

	base := "http://" + addr
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became healthy; logs:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	body := `{"seeds":[0],"scores":true}`
	resp, err := http.Post(base+"/v1/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	var out serve.ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d", resp.StatusCode)
	}
	if out.Model != "tiny" || len(out.Scores) != 6 {
		t.Fatalf("response model %q with %d scores, want tiny with 6", out.Model, len(out.Scores))
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
	if !strings.Contains(logs.String(), "serving tiny on") {
		t.Errorf("startup log missing; got:\n%s", logs.String())
	}
}

// TestRunSIGTERMDrainsRankSolve proves the shutdown ordering for a
// /v1/rank full solve: a SIGTERM (context cancellation) arriving while
// the solve is mid-flight must cancel it, answer the request with its
// partial result, and return from run() within -drain-timeout — long
// before the 100000-iteration cap could be reached.
func TestRunSIGTERMDrainsRankSolve(t *testing.T) {
	t.Cleanup(fault.Reset)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cooPath := filepath.Join(t.TempDir(), "net.coo")
	coo := "coo 6 2 2\nl 0 0\nl 1 1\ne 0 0 2\ne 0 2 4\ne 0 1 3\ne 0 3 5\ne 1 4 5\ne 1 5 0\n"
	if err := os.WriteFile(cooPath, []byte(coo), 0o644); err != nil {
		t.Fatal(err)
	}

	// The solve signals its first kernel pass through the fault
	// registry, then crawls so the cancellation lands mid-flight.
	const maxIter = 100000
	started := make(chan struct{})
	var once sync.Once
	var passes atomic.Int64
	fault.Inject(fault.TensorNodeBatch, func(...any) {
		passes.Add(1)
		once.Do(func() { close(started) })
		time.Sleep(time.Millisecond)
	})

	const drainTimeout = 10 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	var logs bytes.Buffer
	go func() {
		done <- run(ctx, []string{
			"-addr", addr,
			"-dataset", "tiny=" + cooPath,
			"-workers", "1",
			"-epsilon", "1e-300",
			"-maxiter", strconv.Itoa(maxIter),
			"-drain-timeout", drainTimeout.String(),
		}, &logs)
	}()

	base := "http://" + addr
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became healthy; logs:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	rankDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/v1/rank")
		if err != nil {
			rankDone <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rankDone <- resp.StatusCode
	}()

	<-started // the rank solve is inside its first iterations
	cancel()  // SIGTERM

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(drainTimeout):
		t.Fatal("run did not return within -drain-timeout")
	}
	if status := <-rankDone; status != http.StatusOK {
		t.Fatalf("/v1/rank during drain: status %d, want 200 (partial result)", status)
	}
	if n := passes.Load(); n >= maxIter {
		t.Fatalf("the drained solve ran %d kernel passes, want fewer than the %d-iteration cap", n, maxIter)
	}
}

// TestRunWALRestartReplays is the end-to-end kill -9 drill: a daemon
// started with -wal-dir takes ingest batches, dies without any
// shutdown handshake, and a second daemon over the same directories
// replays the log — serving the sealed post-ingest version and
// answering a resent Idempotency-Key from the rebuilt dedup window.
func TestRunWALRestartReplays(t *testing.T) {
	cooPath := filepath.Join(t.TempDir(), "net.coo")
	coo := "coo 6 2 2\nl 0 0\nl 1 1\ne 0 0 2\ne 0 2 4\ne 0 1 3\ne 0 3 5\ne 1 4 5\ne 1 5 0\n"
	if err := os.WriteFile(cooPath, []byte(coo), 0o644); err != nil {
		t.Fatal(err)
	}
	modelDir, walDir := t.TempDir(), t.TempDir()

	// startDaemon boots run() on a fresh port and waits for /healthz.
	startDaemon := func(t *testing.T) (base string, stop func()) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		addr := ln.Addr().String()
		ln.Close()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		var logs bytes.Buffer
		go func() {
			done <- run(ctx, []string{
				"-addr", addr,
				"-dataset", "tiny=" + cooPath,
				"-model-dir", modelDir,
				"-wal-dir", walDir,
				"-workers", "1",
				"-drain-timeout", "5s",
			}, &logs)
		}()
		base = "http://" + addr
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, herr := http.Get(base + "/healthz")
			if herr == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon never became healthy; logs:\n%s", logs.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
		return base, func() {
			cancel()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("run did not return after cancellation")
			}
		}
	}

	ingest := func(t *testing.T, base, key string) *serve.IngestResponse {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+"/v1/ingest",
			strings.NewReader(`{"model":"tiny","deltas":[{"op":"add","from":0,"to":4,"relation":0,"weight":0.5}]}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		var out serve.IngestResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode ingest: %v", err)
		}
		return &out
	}

	base1, stop1 := startDaemon(t)
	first := ingest(t, base1, "job-9")
	if first.Seq != 1 || !first.Sealed {
		t.Fatalf("first ingest: %+v", first)
	}
	// The "crash": tear the process down with no flush of its own. The
	// WAL was fsync'd at append time; nothing else is needed.
	stop1()

	base2, stop2 := startDaemon(t)
	defer stop2()
	resp, err := http.Post(base2+"/v1/classify", "application/json", strings.NewReader(`{"model":"tiny","seeds":[0]}`))
	if err != nil {
		t.Fatalf("classify after restart: %v", err)
	}
	var cls serve.ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cls); err != nil {
		t.Fatalf("decode classify: %v", err)
	}
	resp.Body.Close()
	if cls.ModelHash != first.NewHash {
		t.Fatalf("restarted daemon serves %s, want the replayed %s", cls.ModelHash, first.NewHash)
	}
	dup := ingest(t, base2, "job-9")
	if !dup.Duplicate || dup.NewHash != first.NewHash || dup.Seq != first.Seq {
		t.Fatalf("restarted daemon re-applied a committed key: %+v", dup)
	}
}
