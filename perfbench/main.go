// Command perfbench is the repository's end-to-end benchmark of the
// served reduction stack: client → (gateway → backends | reduxd) →
// engine → kernels, started in this process through the public
// constructors on loopback listeners the benchmark owns.
//
//	perfbench -workload zipf_direct -seed 1 -seconds 25 -trace 0
//
// The seed generates every input; the stack only ever sees the
// generated loops and delta batches. Every result is checked against
// the sequential oracle. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the metrics are the end-to-end set, measured untraced; with -trace 1
// they are the per-layer set, from a separate traced run whose spans
// are written under -spans. An oracle mismatch prints the object with
// "correct": false and exits 1. perfbench/run.sh builds and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run builds the stack and warms it,
// and the last stack serves the phases. setup_s is the median over all
// but the first setupCold set-ups, which also pay the process's own
// first-touch costs (page faults, lazily built runtime state): single
// set-ups of one run ranged 12-47 ms, the first ones slowest.
const (
	setupRepeats = 48
	setupCold    = 3
)

// Phase shares of -seconds in traced runs: an untraced and a traced
// light loop (tracing overhead), the traced busy loop (per-layer
// numbers), then the single-threaded replay pass.
const (
	shareTraceLight = 0.20
	shareTraceBusy  = 0.45
)

// runDeadline bounds one run; past it the process exits non-zero
// rather than hang.
const runDeadline = 170 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	timer := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runDeadline)
		os.Exit(3)
	})
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	timer.Stop()
	os.Exit(code)
}

type options struct {
	workload workloadSpec
	seed     int64
	seconds  float64
	traced   bool
	spansDir string
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 25, "measured seconds per run")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", ".bench_build/spans", "directory traced runs write their spans to")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloadSpecs {
			names = append(names, w.name)
		}
		return options{}, fmt.Errorf("unknown -workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if *seconds <= 0 {
		return options{}, fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if *traceMode != 0 && *traceMode != 1 {
		return options{}, fmt.Errorf("-trace must be 0 or 1, got %d", *traceMode)
	}
	return options{workload: w, seed: *seed, seconds: *seconds, traced: *traceMode == 1, spansDir: *spans}, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)

	in := genInputs(opt.workload, opt.seed)
	var res result
	if opt.traced {
		res, err = runTraced(opt, in, procs)
	} else {
		res, err = runEndToEnd(opt, in, procs)
	}
	if err != nil && !errors.Is(err, errMismatch) {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload.name, err)
		return 1
	}
	want := endToEndMetrics
	if opt.traced {
		want = perLayerMetrics
	}
	if err == nil {
		if missing := missingMetrics(res.Metrics, want); len(missing) > 0 {
			fmt.Fprintf(stderr, "perfbench: metrics not measured: %s\n", strings.Join(missing, ", "))
			return 1
		}
	}
	out, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(out))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload.name, err)
		return 1
	}
	return 0
}

// errMismatch marks a run aborted by an oracle mismatch: its result is
// still printed, with correct=false.
var errMismatch = errors.New("oracle mismatch")

func missingMetrics(got map[string]metricValue, want []metricSpec) []string {
	var missing []string
	for _, m := range want {
		if _, ok := got[m.name]; !ok {
			missing = append(missing, m.name)
		}
	}
	return missing
}

// setupStacks builds the stack and warms it repeats times, tearing down
// all but the last, and returns it with the median set-up time.
func setupStacks(opt options, in *inputs, procs, ringSize, repeats int, retired *[]*runner) (*runner, float64, error) {
	var times []float64
	for k := 0; ; k++ {
		// Collect the benchmark's own garbage (inputs, torn-down stacks)
		// so no GC cycle it owes lands inside a timed set-up.
		runtime.GC()
		t0 := time.Now()
		st, err := startStack(stackConfig{gateway: opt.workload.gateway, procs: procs, ringSize: ringSize})
		if err != nil {
			return nil, 0, err
		}
		d := newRunner(opt.workload, in, st, procs, ringSize > 0)
		err = d.warmup()
		times = append(times, time.Since(t0).Seconds())
		if err == nil && k == repeats-1 {
			return d, median(times[min(setupCold, len(times)-1):]), nil
		}
		*retired = append(*retired, d)
		d.teardown()
		if d.aborted.Load() {
			return nil, 0, fmt.Errorf("%w: %s", errMismatch, d.abortMsg)
		}
		if err != nil {
			return nil, 0, err
		}
	}
}

// windowsOf is a phase's length: its share of the run, in whole
// windows, at least one.
func windowsOf(total, share float64) int {
	return max(1, int(total*share/window.Seconds()+0.5))
}

func runEndToEnd(opt options, in *inputs, procs int) (result, error) {
	var runners []*runner
	// Two cycles: the first moves sync.Pool contents to their victim
	// caches, the second frees them, so the baseline holds only what is
	// live (the inputs).
	runtime.GC()
	runtime.GC()
	base := liveHeap()
	d, setup, err := setupStacks(opt, in, procs, 0, setupRepeats, &runners)
	if err != nil {
		return ledgerResult(runners, err), err
	}
	runners = append(runners, d)
	// The phases take turns a window at a time, so each samples the
	// whole run rather than a third of it: on a host that lends the VM
	// its CPU unevenly, a slow stretch then moves every phase alike
	// instead of whichever one it fell in.
	w := opt.workload
	rounds := max(2, int(opt.seconds/(3*window.Seconds())))
	light := d.openPhase("light", rounds, w.lightRate)
	busy := d.openPhase("busy", rounds, w.busyRate)
	sat := d.closedPhase("saturation", rounds, w.window)
	hs := startHeapSampler()
	for r := 0; r < rounds && !d.aborted.Load(); r++ {
		for _, p := range []*phase{light, busy, sat} {
			d.runWindow(p)
		}
	}
	peaks := hs.stop()
	d.teardown()
	if d.aborted.Load() {
		err = fmt.Errorf("%w: %s", errMismatch, d.abortMsg)
		return ledgerResult(runners, err), err
	}
	if err := d.checkMirrors(); err != nil {
		return ledgerResult(runners, err), err
	}
	// Each metric is a median over windows: of each window's completions
	// (saturation), of each window's latency quantile, and of each
	// window's peak live heap less the live heap before the first
	// constructor ran.
	lightLat, busyLat := light.latenciesMs(), busy.latenciesMs()
	res := ledgerResult(runners, nil)
	res.Metrics = map[string]metricValue{
		"setup_s":          {setup, "s"},
		"throughput_ops_s": {sat.throughput(), "ops/s"},
		"lat_p50_ms.light": {windowQuantile(lightLat, 0.50), "ms"},
		"lat_p50_ms.busy":  {windowQuantile(busyLat, 0.50), "ms"},
		"peak_heap_mb":     {(median(peaks) - float64(base)) / (1 << 20), "MiB"},
	}
	return res, nil
}

// ledgerResult fills the op ledger from every runner the run used and
// reports each phase's ledger on standard error.
func ledgerResult(runners []*runner, err error) result {
	res := result{Correct: err == nil || !errors.Is(err, errMismatch), Metrics: map[string]metricValue{}}
	for _, d := range runners {
		for _, p := range d.all {
			res.Attempted += p.attempted.Load()
			res.Failed += p.failures()
			if p.name == "warmup" {
				continue
			}
			var parts []string
			for _, c := range failureClasses {
				parts = append(parts, fmt.Sprintf("%s=%d", c, p.failed[c]))
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: attempted=%d succeeded=%d failed{%s}\n",
				d.w.name, p.name, p.attempted.Load(), p.succeeded.Load(), strings.Join(parts, " "))
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the contract wants at least one; nothing ran
		res.Correct = false
	}
	return res
}

// quantile is the q-th quantile of xs by the nearest-rank rule
// (+Inf entries, failed ops, sort last).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// liveHeap is the heap held by objects live at the last GC.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the peak live heap of each window while the
// phases run.
type heapSampler struct {
	stopc chan struct{}
	done  chan []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan []float64)}
	go func() {
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		start := time.Now()
		var peaks []float64
		for {
			w := int(time.Since(start) / window)
			for len(peaks) <= w {
				peaks = append(peaks, 0)
			}
			peaks[w] = max(peaks[w], float64(liveHeap()))
			select {
			case <-h.stopc:
				h.done <- peaks
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the per-window peaks.
func (h *heapSampler) stop() []float64 {
	close(h.stopc)
	return <-h.done
}
