package main

import (
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pattern"
	"repro/internal/reduction"
	"repro/internal/trace"
	"repro/internal/wire"
)

const (
	// replayOps bounds how many of the busy phase's ops the wire replay
	// re-encodes; replayPatterns bounds the distinct inputs the adapt and
	// reduction replays time; replaySteps is delta applies per session.
	replayOps      = 512
	replayPatterns = 128
	replaySteps    = 32
	// sampleStride is the engine's default inspector stride.
	sampleStride = 8
)

// replay times the layers' public functions single-threaded, after a
// warm-up call, on the inputs the busy phase sent, while the stack is
// idle: this is each layer's self time without queueing or contention.
//   - wire: encode and decode of every request and its result frame;
//   - adapt/pattern: CharacterizeSampled + Recommend per distinct pattern;
//   - reduction: the recommended scheme's pooled RunInto per distinct
//     pattern, or DeltaState.Apply per session step.
func replay(m map[string]float64, d *runner, p *phase, procs int) {
	var ops []span
	for _, s := range p.spans {
		if s.done != 0 && len(ops) < replayOps {
			ops = append(ops, s)
		}
	}
	l2 := core.DefaultPlatform(procs).Cfg.L2Bytes
	ex := &reduction.Exec{Pool: reduction.NewBufferPool(), MergeBlockElems: reduction.MergeBlockForCache(l2, procs)}

	var distinct []*trace.Loop
	var wants [][]float64
	if d.w.kind == kindSession {
		for _, o := range d.in.sessions {
			distinct = append(distinct, o.mirror)
			wants = append(wants, o.want)
		}
	} else {
		seen := map[int32]bool{}
		for _, s := range ops {
			if !seen[s.pat] && len(distinct) < replayPatterns {
				seen[s.pat] = true
				distinct = append(distinct, d.in.pop[s.pat])
				wants = append(wants, d.in.want[s.pat])
			}
		}
	}

	recs := make([]adapt.Recommendation, len(distinct))
	var inspect []float64
	for i, l := range distinct {
		adapt.Recommend(pattern.CharacterizeSampled(l, procs, l2, sampleStride))
		t0 := time.Now()
		recs[i] = adapt.Recommend(pattern.CharacterizeSampled(l, procs, l2, sampleStride))
		inspect = append(inspect, us(time.Since(t0)))
	}
	m["adapt.inspect_replay_us.p50"] = quantile(inspect, 0.5)

	var run []float64
	if d.w.kind == kindSession {
		for i, o := range d.in.sessions {
			dst := make([]float64, o.mirror.NumElems)
			st, err := reduction.NewDeltaState(o.mirror.Clone(), 0, procs, ex, dst)
			if err != nil {
				d.mismatch("replay: session %d: %v", i, err)
				return
			}
			for k := 0; k <= replaySteps; k++ {
				batch := o.batchAt(o.step + k)
				t0 := time.Now()
				if _, err := st.Apply(batch, procs, ex, dst); err != nil {
					d.mismatch("replay: session %d: %v", i, err)
					return
				}
				if k > 0 {
					run = append(run, us(time.Since(t0)))
				}
			}
		}
	} else {
		for i, l := range distinct {
			scheme := adapt.SchemeFor(recs[i])
			dst := make([]float64, l.NumElems)
			scheme.RunInto(l, procs, ex, dst)
			t0 := time.Now()
			out := scheme.RunInto(l, procs, ex, dst)
			run = append(run, us(time.Since(t0)))
			if !matches(out, wants[i]) {
				d.mismatch("replay: %s under %s differs from the sequential oracle", l.Name, scheme.Name())
				return
			}
		}
	}
	m["reduction.run_replay_us.p50"] = quantile(run, 0.5)

	// Wire: the request frame each op sent and the result frame it got
	// back, encoded and decoded once each; the first op is warm-up.
	var encNs, decNs time.Duration
	var buf, rbuf []byte
	var rdst []float64
	var decoded trace.Loop
	var offs, refs []int32
	var deltas []reduction.RefDelta
	for k, s := range append(ops[:1:1], ops...) {
		res := engine.Result{CacheHit: true, BatchSize: 1}
		var batch []reduction.RefDelta
		if d.w.kind == kindSession {
			o := d.in.sessions[s.pat]
			batch = o.batchAt(int(s.step))
			res.Values, res.Scheme, res.SessionGen = o.want, "session", uint64(s.step)+2
		} else {
			res.Values = d.in.want[s.pat]
		}
		if cap(rdst) < len(res.Values) {
			rdst = make([]float64, len(res.Values))
		}
		t0 := time.Now()
		if batch != nil {
			buf = wire.AppendDelta(buf[:0], s.jobID, d.sessID[s.pat], batch)
		} else {
			buf = wire.AppendSubmitTraced(buf[:0], s.jobID, d.in.pop[s.pat], s.traceID)
		}
		t1 := time.Now()
		f, _, err := wire.DecodeFrame(buf, 0)
		if err == nil {
			if d.w.kind == kindSession {
				_, deltas, err = f.DecodeDelta(deltas)
			} else {
				offs, refs, _, err = f.DecodeSubmitInto(&decoded, offs, refs, wire.DefaultMaxElems)
			}
		}
		t2 := time.Now()
		rbuf = wire.AppendResult(rbuf[:0], s.jobID, &res)
		t3 := time.Now()
		var rf wire.Frame
		if err == nil {
			rf, _, err = wire.DecodeFrame(rbuf, 0)
		}
		if err == nil {
			_, err = rf.DecodeResult(rdst)
		}
		t4 := time.Now()
		if err != nil {
			d.mismatch("replay: wire round trip of op %d: %v", k, err)
			return
		}
		if k > 0 {
			encNs += t1.Sub(t0) + t3.Sub(t2)
			decNs += t2.Sub(t1) + t4.Sub(t3)
		}
	}
	n := float64(len(ops))
	m["wire.encode_us_per_op"] = us(encNs) / n
	m["wire.decode_us_per_op"] = us(decNs) / n
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
