// Command perfbench is the repository's end-to-end benchmark. One
// process drives one seeded workload through the layers' public entry
// points — the serve handlers in-process, tmark.Model.RunContext, and
// the ingest path over an on-disk registry and write-ahead log — checks
// every output, and prints its metrics. See README.md for the
// workloads, the metrics and how to read a traced run.
//
//	perfbench --workload classify-coalesced --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the JSON result; the line before
// it stamps the code, machine and inputs. A failed output check makes
// the exit status 1; a run that cannot start prints no result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// peakRSS reads the process's peak resident set size in MB.
var peakRSS = vmHWM

// networkSeed generates every workload's network. The network is part
// of the workload's definition, not of its traffic: a different random
// network converges in a different number of iterations, which would
// make the cost of a run depend on the seed. The seed draws the traffic
// — queries, delta batches and the labelled subset.
const networkSeed = 1

// setupSamples is how many times each run builds its system under test;
// setup_s is the median of these samples.
const setupSamples = 3

// workload is one seeded traffic mix the benchmark can drive.
type workload interface {
	// prepare generates the seeded inputs. It is not timed.
	prepare(seed int64, seconds int) error
	// setup builds a fresh instance of the system under test, replacing
	// (and releasing) the previous one, and returns its set-up time.
	setup() (time.Duration, error)
	// measure drives the current instance through one measured phase.
	measure(seconds int, tr *tracer) (*phase, error)
	// check verifies the last phase's outputs against an independent
	// computation and returns the operations that failed it.
	check(p *phase) ([]opFailure, error)
	// layers replays the last phase's recorded inputs through the inner
	// layers and returns the per-layer metrics of the traced run.
	layers(p *phase, tr *tracer) (map[string]float64, error)
	// close releases the instance and removes whatever it wrote.
	close()
}

// phase is the outcome of one measured phase.
type phase struct {
	ops   opLog         // primary operations
	reads *opLog        // reader classify calls; nil when the primary operations are the reads
	wall  time.Duration // measured phase length
	info  map[string]any
}

// opFailure marks primary operation index of a phase as failed by a
// check that ran after the phase; an index out of range (-1) marks the
// phase's last operation, for a check of the phase's final state.
type opFailure struct {
	index int
	err   error
}

var workloads = map[string]func(root string) workload{
	"classify-coalesced": func(string) workload { return &classifyWorkload{} },
	"solve-collective":   func(string) workload { return &solveWorkload{} },
	"ingest-live":        func(root string) workload { return &ingestWorkload{root: root} },
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "classify-coalesced, solve-collective or ingest-live")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "length of the measured phase")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	traced := *traceFlag == 1
	spans := filepath.Join(root, ".bench_build", fmt.Sprintf("trace-%s-%d.json", *name, *seed))
	w := mk(root)
	defer w.close()
	res, info, err := runWorkload(w, *seed, *seconds, traced, spans)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	st := newStamp(root, *name, *seed, *seconds, traced)
	line, err := json.Marshal(struct {
		Stamp stamp          `json:"stamp"`
		Info  map[string]any `json:"info"`
	}{st, info})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	printTable(stderr, res, info)
	last, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(last))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload: seeded inputs, setupSamples set-ups,
// the measured phase, the peak-memory reading, the output checks and —
// on a traced run — a traced phase plus the per-layer replays.
func runWorkload(w workload, seed int64, seconds int, traced bool, traceOut string) (*result, map[string]any, error) {
	if err := w.prepare(seed, seconds); err != nil {
		return nil, nil, err
	}
	setups := make([]float64, 0, setupSamples)
	for i := 0; i < setupSamples; i++ {
		// Each sample starts from a collected heap, so it neither pays for
		// nor hides the previous instance's garbage.
		runtime.GC()
		d, err := w.setup()
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	runtime.GC()
	steal := stealTicks()
	p, err := w.measure(seconds, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("measure: %w", err)
	}
	// The share of the machine's CPU time the hypervisor gave to other
	// guests while the phase ran (USER_HZ is 100 on Linux).
	stealShare := float64(stealTicks()-steal) / 100 / (p.wall.Seconds() * float64(runtime.NumCPU()))
	// Read the peak before the checks build their own reference models.
	rss, err := peakRSS()
	if err != nil {
		return nil, nil, err
	}
	info := map[string]any{"setup_samples_s": append([]float64(nil), setups...), "cpu_steal_share": stealShare}
	var tr *tracer
	last := p
	if traced {
		tr = newTracer()
		if _, fresh := w.(interface{ freshPerPhase() }); fresh {
			if _, err := w.setup(); err != nil {
				return nil, nil, fmt.Errorf("setup for traced phase: %w", err)
			}
		}
		runtime.GC()
		if last, err = w.measure(seconds, tr); err != nil {
			return nil, nil, fmt.Errorf("traced measure: %w", err)
		}
	}
	fails, err := w.check(last)
	if err != nil {
		return nil, nil, fmt.Errorf("check: %w", err)
	}
	for _, f := range fails {
		last.ops.fail(f.index, f.err)
	}

	// A traced run counts the operations of both its phases.
	res := &result{Metrics: map[string]metric{}}
	phases := []*phase{p}
	if traced {
		phases = append(phases, last)
	}
	var failures []string
	for _, q := range phases {
		for _, l := range []*opLog{&q.ops, q.reads} {
			if l != nil {
				res.Attempted += l.attempted()
				res.Failed += l.failed
				failures = append(failures, l.failures...)
			}
		}
	}
	res.Correct = res.Failed == 0
	failedRatio := float64(res.Failed) / float64(max(res.Attempted, 1))

	ceil := float64(last.wall) / float64(time.Millisecond)
	prim := last.ops.summarize(ceil)
	reads, readLog := prim, &last.ops
	if last.reads != nil {
		reads, readLog = last.reads.summarize(ceil), last.reads
	}
	for k, v := range last.info {
		info[k] = v
	}
	info["operations"] = map[string]int{
		"attempted": last.ops.attempted(), "failed": last.ops.failed,
		"read_attempted": readLog.attempted(), "read_failed": readLog.failed,
	}
	info["latency_tail_ms"] = prim.TailMs
	info["latency_tail_percentile"] = float64(prim.TailPerMille) / 10
	info["latency_tail_samples_beyond"] = prim.TailBeyond
	info["failed_ratio"] = failedRatio
	if len(failures) > 0 {
		info["failures"] = failures
	}
	info["throughput_windows_per_s"] = last.ops.rates(last.wall)
	if !traced {
		set := func(name string, v float64) { res.Metrics[name] = metric{v, units[name]} }
		set("setup_s", median(setups))
		set("throughput_per_s", last.ops.throughput(last.wall))
		set("latency_p50_ms", prim.P50Ms)
		set("read_throughput_per_s", readLog.throughput(last.wall))
		set("read_latency_p50_ms", reads.P50Ms)
		set("rss_peak_mb", rss)
		set("ok_ratio", 1-failedRatio)
		return res, info, nil
	}

	layers, err := w.layers(last, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("layer replays: %w", err)
	}
	base, tracedTP := p.ops.throughput(p.wall), last.ops.throughput(last.wall)
	layers["trace.overhead_pct"] = 100 * (base - tracedTP) / base
	for _, name := range perLayerMetrics {
		v, ok := layers[name]
		if !ok {
			return nil, nil, fmt.Errorf("internal: workload did not report %s", name)
		}
		res.Metrics[name] = metric{v, units[name]}
	}
	if err := tr.write(traceOut); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	info["trace_file"] = traceOut
	return res, info, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable writes every metric by name with its unit for a human,
// with the ungated tail latency and failure ratio of an untraced run.
func printTable(w io.Writer, res *result, info map[string]any) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if tail, ok := info["latency_tail_ms"].(float64); ok {
		fmt.Fprintf(w, "%-32s %14.6g ms (p%v, %v samples beyond)\n", "latency_tail_ms", tail, info["latency_tail_percentile"], info["latency_tail_samples_beyond"])
	}
	fmt.Fprintf(w, "%-32s %14.6g %s\n", "failed_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	fmt.Fprintf(w, "%-32s %14v\n", "correct", res.Correct)
}
