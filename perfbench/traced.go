package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/wire"
)

// runTraced is the per-layer run. It measures an untraced light loop
// on one stack, then builds a traced stack (every job's timeline kept
// in rings at least as large as the traced phases, every SUBMIT
// carrying a benchmark-assigned trace ID) and runs a traced light loop
// and a traced busy loop. Layer counters and stage histograms are
// differenced over the busy loop; the benchmark's spans are joined with
// every tier's traces by trace ID; the replay pass times the layers'
// public functions on the busy loop's inputs.
func runTraced(opt options, in *inputs, procs int) (result, error) {
	w := opt.workload
	var runners []*runner
	fail := func(d *runner, err error) (result, error) {
		if d != nil && d.aborted.Load() {
			err = fmt.Errorf("%w: %s", errMismatch, d.abortMsg)
		}
		return ledgerResult(runners, err), err
	}

	d0, _, err := setupStacks(opt, in, procs, 0, 1, &runners)
	if err != nil {
		return fail(nil, err)
	}
	runners = append(runners, d0)
	lightWin, busyWin := windowsOf(opt.seconds, shareTraceLight), windowsOf(opt.seconds, shareTraceBusy)
	ref := d0.runPhase(d0.openPhase("light_untraced", lightWin, w.lightRate))
	d0.teardown()
	if d0.aborted.Load() {
		return fail(d0, nil)
	}

	ring := 1024
	for float64(ring) < 2*(w.lightRate*float64(lightWin)+w.busyRate*float64(busyWin))*window.Seconds()+sessionCount {
		ring *= 2
	}
	d, _, err := setupStacks(opt, in, procs, ring, 1, &runners)
	if err != nil {
		return fail(nil, err)
	}
	runners = append(runners, d)
	st := d.st
	light := d.runPhase(d.openPhase("light_traced", lightWin, w.lightRate))
	before := st.snapshot()
	ringBefore := len(st.front.srv.Traces())
	busy := d.runPhase(d.openPhase("busy", busyWin, w.busyRate))
	after := st.snapshot()
	front, back := st.traces()
	if d.aborted.Load() {
		d.teardown()
		return fail(d, nil)
	}

	m := map[string]float64{}
	layerCounters(m, d, busy, before, after)
	j := stitch(d, busy, front[:max(0, len(front)-ringBefore)], back)
	j.report(m)
	m["gen.late_ms.p99"] = quantile(busy.lateMs(), 0.99)
	var busyLat []float64
	for _, w := range busy.latenciesMs() {
		busyLat = append(busyLat, w...)
	}
	m["lat_p99_ms.busy"] = quantile(busyLat, 0.99)
	refP50 := windowQuantile(ref.latenciesMs(), 0.5)
	m["trace.overhead_pct"] = 100 * (windowQuantile(light.latenciesMs(), 0.5) - refP50) / refP50
	m["wire.req_frame_bytes_per_op"] = expectedReqBytes(d, busy) / float64(busy.attempted.Load())
	replay(m, d, busy, procs)

	d.teardown()
	if d.aborted.Load() {
		return fail(d, nil)
	}
	if err := d.checkMirrors(); err != nil {
		return fail(d, err)
	}
	if err := writeSpans(opt, j); err != nil {
		return fail(d, err)
	}

	res := ledgerResult(runners, nil)
	m["harness.error_rate"] = float64(res.Failed) / float64(res.Attempted)
	for _, spec := range perLayerMetrics {
		if v, ok := m[spec.name]; ok {
			res.Metrics[spec.name] = metricValue{v, spec.unit}
		}
	}
	return res, nil
}

// stageDelta is one stage histogram's growth between two snapshots.
func stageDelta(before, after []obs.StageSummary, name string) obs.Snapshot {
	var a, b obs.Snapshot
	for _, s := range after {
		if s.Name == name {
			a = s.Snap
		}
	}
	for _, s := range before {
		if s.Name == name {
			b = s.Snap
		}
	}
	d := obs.Snapshot{Count: a.Count - b.Count, SumNs: a.SumNs - b.SumNs, MaxNs: a.MaxNs}
	d.Buckets = append([]uint64(nil), a.Buckets...)
	for i := range d.Buckets {
		if i < len(b.Buckets) {
			d.Buckets[i] -= b.Buckets[i]
		}
	}
	return d
}

func usQ(s obs.Snapshot, q float64) float64 { return float64(s.Quantile(q)) / 1e3 }

func usPerOp(s obs.Snapshot, ops int64) float64 { return float64(s.SumNs) / 1e3 / float64(ops) }

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerCounters differences every exported counter and stage histogram
// over the phase. Layers the workload does not cross read 0.
func layerCounters(m map[string]float64, d *runner, p *phase, before, after snapshot) {
	ops := p.attempted.Load()
	fs := func(name string) obs.Snapshot { return stageDelta(before.frontStages, after.frontStages, name) }
	for _, stage := range []string{"decode", "intern", "merge", "encode"} {
		s := fs(stage)
		m["server."+stage+"_us.p50"] = usQ(s, 0.50)
		m["server."+stage+"_us.p95"] = usQ(s, 0.95)
		m["server."+stage+"_us.per_op"] = usPerOp(s, ops)
	}
	m["server.intern_hit_ratio"] = float64(after.front.InternHits-before.front.InternHits) / float64(ops)
	m["server.busy"] = float64(after.front.Busy - before.front.Busy)
	m["server.session_evictions"] = float64(after.front.SessionEvictions - before.front.SessionEvictions)

	m["wire.req_bytes_per_op"] = float64(after.frontIn-before.frontIn) / float64(ops)
	m["wire.resp_bytes_per_op"] = float64(after.frontOut-before.frontOut) / float64(ops)
	m["wire.backend_bytes_per_op"] = float64(after.backendIn+after.backendOut-before.backendIn-before.backendOut) / float64(ops)

	if d.st.pool != nil {
		m["cluster.route_us.p50"] = usQ(fs("route"), 0.50)
		bw := fs("backend_wait")
		m["cluster.backend_wait_us.p50"] = usQ(bw, 0.50)
		m["cluster.backend_wait_us.p95"] = usQ(bw, 0.95)
		m["cluster.retry_backoff_us.per_op"] = usPerOp(fs("retry_backoff"), ops)
		m["cluster.busy_retries"] = float64(after.pool.BusyRetries - before.pool.BusyRetries)
		m["cluster.spills"] = float64(after.pool.BusySpills - before.pool.BusySpills)
		m["cluster.affinity_ratio"] = ratio(uint64(len(d.seen)), uint64(after.eng.CacheEntries))
	} else {
		for _, k := range []string{"cluster.route_us.p50", "cluster.backend_wait_us.p50", "cluster.backend_wait_us.p95",
			"cluster.retry_backoff_us.per_op", "cluster.busy_retries", "cluster.spills", "cluster.affinity_ratio"} {
			m[k] = 0
		}
	}

	es := func(name string) obs.Snapshot { return stageDelta(before.eng.Stages, after.eng.Stages, name) }
	qw, ex, insp := es("queue_wait"), es("execute"), es("inspect")
	m["engine.queue_wait_us.p50"] = usQ(qw, 0.50)
	m["engine.queue_wait_us.p95"] = usQ(qw, 0.95)
	m["engine.execute_us.p50"] = usQ(ex, 0.50)
	m["engine.execute_us.p95"] = usQ(ex, 0.95)
	m["engine.execute_us.per_op"] = usPerOp(ex, ops)
	m["engine.inspect_us.p50"] = usQ(insp, 0.50)
	m["engine.inspect_per_op"] = float64(insp.Count) / float64(ops)
	b, a := before.eng, after.eng
	m["engine.jobs_per_batch"] = ratio(a.Jobs-b.Jobs, a.Batches-b.Batches)
	m["engine.cache_hit_ratio"] = ratio(a.CacheHits-b.CacheHits, a.CacheHits-b.CacheHits+a.CacheMisses-b.CacheMisses)
	m["engine.cache_evictions"] = float64(a.CacheEvictions - b.CacheEvictions)
	m["engine.recalibrations"] = float64(a.Recalibrations - b.Recalibrations)
	reused := a.SessionSegsReused - b.SessionSegsReused
	m["engine.session_seg_reuse_ratio"] = ratio(reused, reused+a.SessionSegsComputed-b.SessionSegsComputed)

	m["client.busy"] = float64(p.failed["busy"])
	m["client.conn_lost"] = float64(p.failed["conn_lost"])
}

// joinedOp is one op's client span stitched to the traces its trace ID
// left on each tier.
type joinedOp struct {
	span
	front, back *obs.JobTrace
}

// joined is the stitched view of a traced phase.
type joined struct {
	ops     []joinedOp
	okOps   int
	matched int // ops whose trace was found on every tier it crossed
	// Sums over matched ops, in nanoseconds: client-observed latency
	// (SubmitAsync entered → result received), and the part of it
	// neither the client's submit leg nor the front tier's recorded
	// stages cover. The submit leg can overlap the server's interval (the
	// server may start on a frame before the client's call returns), so
	// each op's remainder is floored at zero.
	latNs, unattribNs int64
	nested            int // matched ops whose tier totals nest inside the client latency
	unattributedUs    []float64
	submitUs          []float64
}

// stitch joins the phase's spans with the traces the phase added to the
// front tier's ring (phaseTraces) and with the backends' rings. Session
// deltas carry no client trace ID, so for them the phase's ring entries
// are matched in aggregate rather than per op.
func stitch(d *runner, p *phase, phaseTraces []obs.JobTrace, back map[uint64]obs.JobTrace) *joined {
	front := make(map[uint64]obs.JobTrace, len(phaseTraces))
	for _, t := range phaseTraces {
		front[t.TraceID] = t
	}
	j := &joined{}
	for _, s := range p.spans {
		if s.done == 0 {
			continue
		}
		j.submitUs = append(j.submitUs, float64(s.queued-s.sent)/1e3)
		if !s.ok {
			j.ops = append(j.ops, joinedOp{span: s})
			continue
		}
		j.okOps++
		jo := joinedOp{span: s}
		if s.traceID != 0 {
			if t, ok := front[s.traceID]; ok {
				jo.front = &t
			}
			if back != nil {
				if t, ok := back[s.traceID]; ok {
					jo.back = &t
				}
			}
		}
		j.ops = append(j.ops, jo)
		lat := s.done - s.sent
		if jo.front == nil || (back != nil && jo.back == nil) {
			continue
		}
		j.matched++
		j.latNs += lat
		j.unattribNs += max(0, lat-(s.queued-s.sent)-jo.front.TotalNs)
		j.unattributedUs = append(j.unattributedUs, float64(lat-jo.front.TotalNs)/1e3)
		// Each tier's recorded interval must sit inside its caller's.
		if jo.front.TotalNs <= lat && (jo.back == nil || jo.back.TotalNs <= jo.front.TotalNs) {
			j.nested++
		}
	}
	if d.w.kind == kindSession {
		// Aggregate match: the newest ring entries are this phase's.
		n := min(len(phaseTraces), j.okOps)
		j.matched = n
		var lats, totals []float64
		var submitNs, serverNs int64
		for _, jo := range j.ops {
			if jo.ok {
				j.latNs += jo.done - jo.sent
				submitNs += jo.queued - jo.sent
				lats = append(lats, float64(jo.done-jo.sent))
			}
		}
		for _, t := range phaseTraces[:n] {
			serverNs += t.TotalNs
			totals = append(totals, float64(t.TotalNs))
		}
		// Scale the ring's sum to the op count when the ring kept fewer.
		if n > 0 && n < j.okOps {
			serverNs = serverNs * int64(j.okOps) / int64(n)
		}
		j.unattribNs = max(0, j.latNs-submitNs-serverNs)
		if serverNs <= j.latNs {
			j.nested = j.matched
		}
		j.unattributedUs = []float64{(quantile(lats, 0.5) - quantile(totals, 0.5)) / 1e3}
	}
	return j
}

// report states coverage and reconciliation: how many ops the rings
// kept, how many nest inside the client's latency, and the share of
// client-observed latency no recorded stage or client leg accounts for.
func (j *joined) report(m map[string]float64) {
	m["client.submit_us.p50"] = quantile(j.submitUs, 0.5)
	m["client.unattributed_us.p50"] = quantile(j.unattributedUs, 0.5)
	m["trace.kept_ratio"] = ratio(uint64(j.matched), uint64(j.okOps))
	m["trace.reconciled_ratio"] = ratio(uint64(j.nested), uint64(j.matched))
	m["trace.unattributed_share"] = ratio(uint64(j.unattribNs), uint64(j.latNs))
}

// expectedReqBytes re-encodes the phase's request stream with the job
// IDs the client assigned and sums the frame sizes: what the counting
// listener must have read, preamble and HELLO excluded.
func expectedReqBytes(d *runner, p *phase) float64 {
	var total int
	body := map[int32]int{}
	var buf []byte
	for _, s := range p.spans {
		if s.done == 0 {
			continue
		}
		if d.w.kind == kindSession {
			o := d.in.sessions[s.pat]
			batch := o.batchAt(int(s.step))
			buf = wire.AppendDelta(buf[:0], s.jobID, d.sessID[s.pat], batch)
			total += len(buf)
			continue
		}
		n, ok := body[s.pat]
		if !ok {
			// Frame size minus the 4-byte length, type and one-byte job ID.
			n = len(wire.AppendSubmit(nil, 0, d.in.pop[s.pat])) - 6
			body[s.pat] = n
		}
		total += 5 + uvarintLen(s.jobID) + n
		if s.traceID != 0 {
			total += uvarintLen(s.traceID)
		}
	}
	return float64(total)
}

func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

// spanRecord is one line of the spans file.
type spanRecord struct {
	Op       int           `json:"op"`
	TraceID  uint64        `json:"trace_id,omitempty"`
	Pattern  int32         `json:"pattern"`
	DueNs    int64         `json:"due_ns"`
	SentNs   int64         `json:"sent_ns"`
	QueuedNs int64         `json:"queued_ns"`
	DoneNs   int64         `json:"done_ns"`
	OK       bool          `json:"ok"`
	Front    *obs.JobTrace `json:"front,omitempty"`
	Backend  *obs.JobTrace `json:"backend,omitempty"`
}

// writeSpans writes the traced phase's stitched spans, one JSON object
// per line, once the run is over.
func writeSpans(opt options, j *joined) error {
	if err := os.MkdirAll(opt.spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(opt.spansDir, fmt.Sprintf("%s_seed%d.jsonl", opt.workload.name, opt.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, jo := range j.ops {
		rec := spanRecord{Op: i, TraceID: jo.traceID, Pattern: jo.pat, DueNs: jo.due, SentNs: jo.sent,
			QueuedNs: jo.queued, DoneNs: jo.done, OK: jo.ok, Front: jo.front, Backend: jo.back}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
