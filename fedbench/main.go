// Command fedbench is the federation benchmark. In one process it
// starts a multi-tenant host (host.Server: registry, admission,
// eviction) and a kernel peer (p2p.Network) dialing it over TCP
// loopback, drives one named workload for a fixed time, checks every
// verdict against the value fixed when the inputs were generated, and
// prints one JSON result line.
//
//	fedbench --workload central-bulk --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no telemetry attached. With --trace 1 the run measures half its
// time untraced and half traced — spans recorded around every seam the
// harness hands to the program, and an obs.Collector attached to the
// host and the kernel peer — and the result carries the per-layer
// metrics. The traced run also times the stream and xmltree entry
// points directly on the workload's own documents, and writes its
// spans to .bench_build/spans-<workload>-<seed>.tsv.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"dxml/internal/p2p"
	"dxml/internal/schema"
	"dxml/internal/xmltree"
)

// coldSetups is how many processes time a cold set-up for setup_s.
// Each is a fresh run of this program that generates the inputs, sets
// the federation up once and exits, so every set-up is the first of its
// process and pays the process's start, its package initialization and
// its first heap growth. setup_s is their median.
const coldSetups = 9

// probeTimeout bounds one set-up probe; the probes together stay well
// inside the run's watchdog.
const probeTimeout = 20 * time.Second

// p2pChunk is the chunk budget every workload runs at: the shipped
// default.
const p2pChunk = p2p.DefaultChunkSize

// watchdog bounds a run: a hang fails the command instead of stalling
// the caller.
const watchdog = 170 * time.Second

// fragment is one served document with its local type and reference
// verdict, for the traced run's layer microloops.
type fragment struct {
	doc   *xmltree.Tree
	local *schema.EDTD
	valid bool
}

// prepared is a workload whose inputs are generated.
type prepared struct {
	setup func(tr *tracer, cost *setupCost) (federation, error)
	// measure runs the timed phase.
	measure func(f federation, d time.Duration, tr *tracer) phase
	frags   []fragment
	// check, when set, is the workload's trace completeness check.
	check func(spans []span, ops int) (coverage float64, err error)
}

type workload struct {
	name    string
	prepare func(seed int64) (*prepared, error)
}

var workloads = []workload{
	{"central-bulk", prepareBulk},
	{"verdict-churn", prepareChurn},
	{"live-edits", prepareEdits},
}

func prepareBulk(seed int64) (*prepared, error) {
	in, err := genBulk(seed)
	if err != nil {
		return nil, err
	}
	p := &prepared{
		setup:   func(tr *tracer, c *setupCost) (federation, error) { return setupBulk(in, tr, c) },
		measure: closedLoop,
		check:   in.checkTrace,
	}
	for i, d := range in.docs {
		p.frags = append(p.frags, fragment{doc: d, local: in.ty.typing[i], valid: true})
	}
	return p, nil
}

func prepareChurn(seed int64) (*prepared, error) {
	in, err := genChurn(seed)
	if err != nil {
		return nil, err
	}
	p := &prepared{
		setup: func(tr *tracer, c *setupCost) (federation, error) { return setupChurn(in, tr, c) },
		measure: func(f federation, d time.Duration, _ *tracer) phase {
			return openLoop(f, d, churnRate, runtime.NumCPU())
		},
	}
	for _, t := range in.tenants {
		for i, d := range t.docs {
			local := in.tys[t.class].typing[i]
			p.frags = append(p.frags, fragment{doc: d, local: local, valid: local.Validate(d) == nil})
		}
	}
	return p, nil
}

func prepareEdits(seed int64) (*prepared, error) {
	in, err := genEdits(seed)
	if err != nil {
		return nil, err
	}
	p := &prepared{
		setup:   func(tr *tracer, c *setupCost) (federation, error) { return setupEdits(in, tr, c) },
		measure: closedLoop,
	}
	for i, d := range in.docs {
		p.frags = append(p.frags, fragment{doc: d, local: in.ty.typing[i], valid: true})
	}
	return p, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func median(ds []time.Duration) float64 {
	return quantile(millis(ds), 0.5)
}

func main() {
	name := flag.String("workload", "", "workload: central-bulk, verdict-churn or live-edits")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	probe := flag.Int64("setup-probe", 0, "internal: time one cold set-up of a process started at this Unix time in ns")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	time.AfterFunc(watchdog+time.Duration(*seconds*float64(time.Second)), func() {
		fmt.Fprintln(os.Stderr, "fedbench: run exceeded its time bound")
		os.Exit(3)
	})
	if *probe != 0 {
		if err := setupProbe(w, *seed, time.Unix(0, *probe)); err != nil {
			fmt.Fprintf(os.Stderr, "fedbench: %s: set-up probe: %v\n", w.name, err)
			os.Exit(1)
		}
		return
	}
	d := time.Duration(*seconds * float64(time.Second))
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = tracedRun(w, *seed, d)
	} else {
		res, err = plainRun(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := report(res); err != nil {
		fmt.Fprintf(os.Stderr, "fedbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints the metrics as a table on standard error and the result
// as the last line of standard output.
func report(res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	out, err := json.Marshal(res)
	if err != nil {
		return err // a metric is not a finite number
	}
	fmt.Println(string(out))
	return nil
}

// setUp sets the workload's federation up n times, keeping the last;
// it returns each set-up's typing time and compile time.
func setUp(p *prepared, tr *tracer, n int) (f federation, typing, compile []time.Duration, err error) {
	for i := 0; i < n; i++ {
		if f != nil {
			f.close()
		}
		cost := &setupCost{}
		if f, err = p.setup(tr, cost); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		t, c := cost.totals()
		typing, compile = append(typing, t), append(compile, c)
	}
	return f, typing, compile, nil
}

// setupProbe is one cold set-up, in a process started at started: it
// generates the inputs, sets the federation up and prints the seconds
// from process start to the end of the set-up, less input generation.
func setupProbe(w *workload, seed int64, started time.Time) error {
	var p *prepared
	var err error
	genTime := timeIt(func() { p, err = w.prepare(seed) })
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	f, err := p.setup(nil, &setupCost{})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	elapsed := time.Since(started) - genTime
	f.close()
	fmt.Println(elapsed.Seconds())
	return nil
}

// coldSetupTimes runs n set-up probes one after another and returns
// their set-up times in seconds.
func coldSetupTimes(w *workload, seed int64, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		started := time.Now()
		cmd := exec.CommandContext(ctx, self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--setup-probe", strconv.FormatInt(started.UnixNano(), 10))
		cmd.Stderr = os.Stderr
		// Output waits for the probe to exit; ctx kills one that hangs.
		line, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up probe %d: %w", i, err)
		}
		secs, err := strconv.ParseFloat(string(bytes.TrimSpace(line)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe %d: %w", i, err)
		}
		out = append(out, secs)
	}
	return out, nil
}

// plainRun is the untraced run: the end-to-end metrics.
func plainRun(w *workload, seed int64, d time.Duration) (*result, error) {
	cold, err := coldSetupTimes(w, seed, coldSetups)
	if err != nil {
		return nil, err
	}
	var p *prepared
	genTime := timeIt(func() { p, err = w.prepare(seed) })
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	f, err := p.setup(nil, &setupCost{})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer f.close()
	fmt.Fprintf(os.Stderr, "inputs generated in %.3fs; cold set-ups %.4v s\n", genTime.Seconds(), cold)
	res, err := endToEnd(p.measure(f, d, nil))
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = metric{quantile(cold, 0.5), "s"}
	// Measured once the phase's samples, which are the harness's, are
	// unreachable: what the running federation pins.
	res.Metrics["heap_mb"] = metric{heapMB(), "MB"}
	return res, nil
}

// endToEnd derives the per-phase end-to-end metrics.
func endToEnd(ph phase) (*result, error) {
	fmt.Fprintf(os.Stderr, "%d operations\n", ph.attempted)
	if ph.firstErr != nil {
		fmt.Fprintf(os.Stderr, "first failure: %v\n", ph.firstErr)
	}
	if len(ph.total.lat) == 0 {
		return nil, fmt.Errorf("no operation completed: %v", ph.firstErr)
	}
	if len(ph.total.lat) < tailBlock {
		fmt.Fprintf(os.Stderr, "warning: %d operations, fewer than 10 lie beyond the p99\n", len(ph.total.lat))
	}
	m := map[string]metric{
		"ops_per_s":       {ph.perWindow(func(s stats) float64 { return s.ops() / s.wall.Seconds() }), "1/s"},
		"validated_mb_s":  {ph.perWindow(func(s stats) float64 { return float64(s.validated) / 1e6 / s.wall.Seconds() }), "MB/s"},
		"p50_ms":          {ph.perWindow(func(s stats) float64 { return quantile(millis(s.lat), 0.5) }), "ms"},
		"p99_ms":          {ph.p99(), "ms"},
		"cpu_ms_per_op":   {ph.perWindow(func(s stats) float64 { return float64(s.cpu) / 1e6 / s.ops() }), "ms"},
		"alloc_kb_per_op": {ph.perWindow(func(s stats) float64 { return float64(s.alloc) / 1e3 / s.ops() }), "KB"},
		"wire_kb_per_op":  {ph.perWindow(func(s stats) float64 { return float64(s.wireBytes) / 1e3 / s.ops() }), "KB"},
	}
	return &result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}, nil
}
