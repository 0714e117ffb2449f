package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name, Why string
	}
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runOnce runs the benchmark in-process and decodes its last line.
func runOnce(t *testing.T, args ...string) (result, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append(args, "-spans", t.TempDir()), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if last := lines[len(lines)-1]; last != "" {
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			t.Fatalf("last line is not the result object: %q (%v)", last, err)
		}
	}
	if code != 0 {
		t.Logf("stderr: %s", errOut.String())
	}
	return res, code
}

// TestSmokeEveryWorkload runs every workload briefly in both modes and
// checks the printed metrics against BENCHMARK.json by name and unit.
func TestSmokeEveryWorkload(t *testing.T) {
	b := loadBenchmarkFile(t)
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, w := range workloadSpecs {
		for _, traceMode := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+traceMode, func(t *testing.T) {
				res, code := runOnce(t, "-workload", w.name, "-seed", "7", "-seconds", "3", "-trace", traceMode)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v", code, res)
				}
				want := len(b.EndToEnd)
				if traceMode == "1" {
					want = len(b.PerLayer)
				}
				if len(res.Metrics) != want {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), want)
				}
				for name, v := range res.Metrics {
					if u, ok := units[name]; !ok || u != v.Unit {
						t.Errorf("metric %s unit %q: BENCHMARK.json has %q (declared %v)", name, v.Unit, u, ok)
					}
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s = %v", name, v.Value)
					}
				}
				if traceMode == "0" {
					for name, v := range res.Metrics {
						if v.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
						}
					}
					return
				}
				// The counting listener sees exactly the frames the encoder
				// produces for the submitted stream.
				got, enc := res.Metrics["wire.req_bytes_per_op"].Value, res.Metrics["wire.req_frame_bytes_per_op"].Value
				if got != enc || got <= 0 {
					t.Errorf("wire.req_bytes_per_op %v, encoder frames %v", got, enc)
				}
				if k := res.Metrics["trace.kept_ratio"].Value; k < 0.9 {
					t.Errorf("trace.kept_ratio %v", k)
				}
				if r := res.Metrics["trace.reconciled_ratio"].Value; r != 1 {
					t.Errorf("trace.reconciled_ratio %v: a tier's trace lies outside its caller's interval", r)
				}
			})
		}
	}
}

// TestPlantedWrongResultFailsOracle corrupts one expected value; the
// run must stop with an oracle mismatch and report correct=false.
func TestPlantedWrongResultFailsOracle(t *testing.T) {
	for _, name := range []string{"zipf_direct", "session_delta"} {
		t.Run(name, func(t *testing.T) {
			w, _ := lookupWorkload(name)
			in := genInputs(w, 3)
			if w.kind == kindSession {
				in.sessions[0].want[5] += 1e-6 * (1 + math.Abs(in.sessions[0].want[5]))
			} else {
				in.want[0][0] += 1e-6 * (1 + math.Abs(in.want[0][0]))
			}
			opt := options{workload: w, seed: 3, seconds: 2, spansDir: t.TempDir()}
			res, err := runEndToEnd(opt, in, runtime.NumCPU())
			if !errors.Is(err, errMismatch) {
				t.Fatalf("err = %v, want an oracle mismatch", err)
			}
			if res.Correct {
				t.Fatal("result reports correct=true after a mismatch")
			}
		})
	}
}

// TestSessionOracleMatchesMirror pins the incremental session oracle to
// the full recomputation, bit for bit, including past the stream's end.
func TestSessionOracleMatchesMirror(t *testing.T) {
	ds := workloads.NewDeltaStream(12, sessionBatchSize, sessionScale, 42)
	o := newSessionOracle(ds)
	for step := 1; step <= 20; step++ {
		o.advance()
		var want []float64
		if step <= len(ds.Batches) {
			want = ds.MirrorAt(step).RunSequential()
		} else {
			want = o.mirror.RunSequential()
		}
		if !sameBits(o.want, want) {
			t.Fatalf("step %d: incremental oracle differs from the sequential reduction", step)
		}
	}
}

// TestWrappedBatchesChangeTheLoop checks that a session stepping past
// its generated stream keeps sending batches that change references,
// rather than re-setting the values the first pass left.
func TestWrappedBatchesChangeTheLoop(t *testing.T) {
	ds := workloads.NewDeltaStream(64, sessionBatchSize, sessionScale, 42)
	o := newSessionOracle(ds)
	for o.step < 2*len(ds.Batches) {
		_, refs := o.mirror.Flat()
		changed := 0
		for _, d := range o.next() {
			if refs[d.Pos] != d.Ref {
				changed++
			}
		}
		if o.step >= len(ds.Batches) && changed < sessionBatchSize/2 {
			t.Fatalf("step %d: wrapped batch changes %d of %d references", o.step, changed, sessionBatchSize)
		}
		o.advance()
	}
}

func TestMatchesTolerance(t *testing.T) {
	want := []float64{1, 1000, 0}
	if !matches([]float64{1 + 1e-10, 1000 + 1e-7, 1e-10}, want) {
		t.Error("values within 1e-9 relative rejected")
	}
	if matches([]float64{1 + 1e-8, 1000, 0}, want) || matches(want[:2], want) {
		t.Error("mismatch accepted")
	}
}

// TestBenchmarkFileMatchesSpec keeps BENCHMARK.json and the tables the
// binary prints from in step: names, units, directions, bounds, and
// the frozen rates and window each workload's why line states.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.EndToEnd) != len(endToEndMetrics) || len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d/%d metrics, the binary %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		s := endToEndMetrics[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("end_to_end[%d] = %+v, binary prints %+v", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for i, m := range b.PerLayer {
		s := perLayerMetrics[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per_layer[%d] = %+v, binary prints %+v", i, m, s)
		}
		if s.moves == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it moves", s.name)
		}
	}
	if len(b.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(b.Workloads), len(workloadSpecs))
	}
	re := regexp.MustCompile(`light (\d+)/s, busy (\d+)/s, saturation window (\d+)$`)
	for i, w := range b.Workloads {
		s := workloadSpecs[i]
		m := re.FindStringSubmatch(w.Why)
		if w.Name != s.name || m == nil {
			t.Errorf("workload %d: %q / %q does not match %s", i, w.Name, w.Why, s.name)
			continue
		}
		light, _ := strconv.ParseFloat(m[1], 64)
		busy, _ := strconv.ParseFloat(m[2], 64)
		win, _ := strconv.Atoi(m[3])
		if light != s.lightRate || busy != s.busyRate || win != s.window {
			t.Errorf("%s: why states %v/%v/%d, binary uses %v/%v/%d", s.name, light, busy, win, s.lightRate, s.busyRate, s.window)
		}
	}
}
