package main

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
)

// Failure classes of the ledger: every op either returns the oracle's
// value or fails with one of these typed errors. An oracle mismatch is
// not a failure class; it aborts the run.
var failureClasses = []string{"busy", "conn_lost", "session_gone", "protocol"}

func classify(err error) string {
	switch {
	case errors.Is(err, client.ErrBusy):
		return "busy"
	case errors.Is(err, client.ErrSessionGone):
		return "session_gone"
	case errors.Is(err, client.ErrConnLost), errors.Is(err, client.ErrClosed):
		return "conn_lost"
	default:
		return "protocol"
	}
}

// span is the benchmark's own record of one op around its calls into
// the client: times are nanoseconds since the phase started.
type span struct {
	traceID uint64
	jobID   uint64 // the job ID the client's round-robin pool assigns
	pat     int32  // population index, or session index
	step    int32  // session step the delta batch advances from
	win     int32  // the phase's window the op was sent in
	due     int64
	sent    int64 // SubmitAsync* entered
	queued  int64 // SubmitAsync* returned
	done    int64 // result (or failure) received
	ok      bool
}

// phase collects one measured phase: the op ledger, per-op latency from
// when each op was due, and every op's span when it keeps them. A phase
// runs as a fixed number of windows, which a run may interleave with
// other phases' windows.
type phase struct {
	name  string
	start time.Time // when its first window started
	// rate > 0 makes the phase an open loop at rate ops/s; otherwise it
	// is a closed loop keeping inFlight ops in flight.
	rate     float64
	inFlight int
	keep     bool // record every op's span

	mu     sync.Mutex
	spans  []span
	failed map[string]int64

	attempted, succeeded atomic.Int64
	// windows counts the windows run so far. completed[w] counts the
	// successes sent in window w that resolved before the window ended,
	// ends[w] (nanoseconds since start).
	windows   int
	completed []atomic.Int64
	ends      []int64
	wg        sync.WaitGroup
}

// window is the unit phases run and are summarized in: each metric is
// computed per window and reported as the median over windows, so a
// stall that hits one window (a GC pause, a noisy neighbour) moves it
// little.
const window = 500 * time.Millisecond

// newPhase starts a phase ledger of n windows.
func newPhase(name string, n int) *phase {
	return &phase{name: name, completed: make([]atomic.Int64, n), ends: make([]int64, n), failed: make(map[string]int64)}
}

// openPhase and closedPhase register an open-loop phase at rate ops/s
// and a closed-loop phase keeping inFlight ops in flight.
func (d *runner) openPhase(name string, n int, rate float64) *phase {
	p := newPhase(name, n)
	p.rate, p.keep = rate, true
	d.all = append(d.all, p)
	return p
}

func (d *runner) closedPhase(name string, n, inFlight int) *phase {
	p := newPhase(name, n)
	p.inFlight = inFlight
	d.all = append(d.all, p)
	return p
}

func (p *phase) since(t time.Time) int64 { return int64(t.Sub(p.start)) }

func (p *phase) fail(class string) {
	p.mu.Lock()
	p.failed[class]++
	p.mu.Unlock()
}

func (p *phase) failures() int64 {
	var n int64
	for _, v := range p.failed {
		n += v
	}
	return n
}

// latenciesMs returns each op's latency from its due time, grouped by
// the window the op was sent in; failed ops count as infinitely late,
// so they miss any latency limit.
func (p *phase) latenciesMs() [][]float64 {
	out := make([][]float64, p.windows)
	for _, s := range p.spans {
		if !s.ok {
			out[s.win] = append(out[s.win], math.Inf(1))
			continue
		}
		out[s.win] = append(out[s.win], float64(s.done-s.due)/1e6)
	}
	return out
}

// windowQuantile is the median over windows of each window's q-th
// latency quantile.
func windowQuantile(windows [][]float64, q float64) float64 {
	var per []float64
	for _, w := range windows {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	return median(per)
}

// bufPool recycles result arrays by power-of-two capacity, so the
// client decodes results into reused memory as a real caller would.
type bufPool struct{ classes [40]sync.Pool }

func (b *bufPool) get(n int) []float64 {
	c := bits.Len(uint(n - 1))
	if v, ok := b.classes[c].Get().(*[]float64); ok {
		return (*v)[:n]
	}
	return make([]float64, n, 1<<c)
}

func (b *bufPool) put(s []float64) {
	s = s[:cap(s)]
	b.classes[bits.Len(uint(cap(s)-1))].Put(&s)
}

// runner sends one workload's ops through a stack's client from a
// single sender goroutine. Each sent op gets a parked goroutine that
// only waits on its result handle, checks it against the oracle and
// records it.
type runner struct {
	w      workloadSpec
	in     *inputs
	st     *stack
	procs  int
	traced bool
	bufs   bufPool

	cursor int // next position in in.stream
	// picks and connIDs model the client pool's round-robin slot choice
	// and per-connection job IDs, for the frame-size cross-check.
	picks   uint64
	connIDs []uint64

	sessions []*client.Session
	sessDst  [][]float64
	sessConn []uint64 // pooled connection each session is pinned to
	sessID   []uint64 // connection-scoped session ID
	connSIDs []uint64
	// idle holds, per pooled connection that has sessions, the sessions
	// pinned to it with no delta in flight. Deltas take turns over these
	// connections, so in-flight work splits evenly between them whatever
	// order deltas complete in.
	idle     []chan int
	nextIdle int

	// seen is the set of patterns submitted so far (affinity check).
	seen map[int]bool

	aborted  atomic.Bool
	abortMu  sync.Mutex
	abortMsg string

	all []*phase
}

func newRunner(w workloadSpec, in *inputs, st *stack, procs int, traced bool) *runner {
	return &runner{
		w: w, in: in, st: st, procs: procs, traced: traced,
		picks:    uint64(procs), // the Hello per pooled connection in startStack
		connIDs:  make([]uint64, procs),
		connSIDs: make([]uint64, procs),
		seen:     make(map[int]bool),
	}
}

// mismatch aborts the run on an oracle failure, keeping the first
// message.
func (d *runner) mismatch(format string, args ...any) {
	d.abortMu.Lock()
	if d.abortMsg == "" {
		d.abortMsg = fmt.Sprintf(format, args...)
	}
	d.abortMu.Unlock()
	d.aborted.Store(true)
}

// warmup submits each warm-up pattern once (pipelined) or opens every
// session, checking every result.
func (d *runner) warmup() error {
	p := newPhase("warmup", 0)
	p.start = time.Now()
	d.all = append(d.all, p)
	if d.w.kind == kindSession {
		idleOf := map[uint64]chan int{}
		for i, o := range d.in.sessions {
			p.attempted.Add(1)
			d.picks++
			conn := d.picks % uint64(d.procs)
			d.connIDs[conn]++
			d.connSIDs[conn]++
			d.sessConn = append(d.sessConn, conn)
			d.sessID = append(d.sessID, d.connSIDs[conn])
			s, res, err := d.st.cl.OpenSession(o.mirror)
			if err != nil {
				p.fail(classify(err))
				return fmt.Errorf("open session %d: %w", i, err)
			}
			if !matches(res.Values, o.want) {
				d.mismatch("session %d: open result differs from the sequential oracle", i)
				return errors.New(d.abortMsg)
			}
			p.succeeded.Add(1)
			d.sessions = append(d.sessions, s)
			d.sessDst = append(d.sessDst, make([]float64, o.mirror.NumElems))
			if idleOf[conn] == nil {
				idleOf[conn] = make(chan int, len(d.in.sessions))
				d.idle = append(d.idle, idleOf[conn])
			}
			idleOf[conn] <- i
		}
		return nil
	}
	for _, pat := range d.in.warmup {
		d.submit(p, 0, pat, time.Now(), nil)
	}
	p.wg.Wait()
	if d.aborted.Load() {
		return errors.New(d.abortMsg)
	}
	if n := p.failures(); n > 0 {
		return fmt.Errorf("warm-up: %d ops failed", n)
	}
	return nil
}

// send starts the workload's next op, due at due, in window w of the
// phase. release, when non-nil, runs once the op resolves.
func (d *runner) send(p *phase, w int, due time.Time, release func()) {
	if d.w.kind == kindSession {
		d.sendDelta(p, w, due, release)
		return
	}
	pat := int(d.in.stream[d.cursor%len(d.in.stream)])
	d.cursor++
	d.submit(p, w, pat, due, release)
}

func (d *runner) submit(p *phase, w, pat int, due time.Time, release func()) {
	l := d.in.pop[pat]
	var tid uint64
	if d.traced {
		tid = obs.NewTraceID()
	}
	d.picks++
	conn := d.picks % uint64(d.procs)
	d.connIDs[conn]++
	jobID := d.connIDs[conn]
	d.seen[pat] = true

	dst := d.bufs.get(l.NumElems)
	i := p.attempted.Add(1)
	sent := time.Now()
	h, err := d.st.cl.SubmitAsyncIntoTraced(l, dst, tid)
	queued := time.Now()
	sp := span{traceID: tid, jobID: jobID, pat: int32(pat), win: int32(w), due: p.since(due), sent: p.since(sent), queued: p.since(queued)}
	if err != nil {
		d.finish(p, sp, time.Now(), classify(err), release)
		d.bufs.put(dst)
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		res, err := h.Wait()
		doneAt := time.Now()
		class := ""
		switch {
		case err != nil:
			class = classify(err)
		case !matches(res.Values, d.in.want[pat]):
			d.mismatch("%s op %d: result for pattern %s differs from the sequential oracle", p.name, i, l.Name)
			class = "mismatch"
		}
		d.bufs.put(dst)
		d.finish(p, sp, doneAt, class, release)
	}()
}

func (d *runner) sendDelta(p *phase, w int, due time.Time, release func()) {
	idle := d.idle[d.nextIdle%len(d.idle)]
	d.nextIdle++
	s := <-idle
	o := d.in.sessions[s]
	batch := o.next()
	conn := d.sessConn[s]
	d.connIDs[conn]++
	i := p.attempted.Add(1)
	sent := time.Now()
	h, err := d.sessions[s].SubmitDeltaAsyncInto(batch, d.sessDst[s])
	queued := time.Now()
	sp := span{jobID: d.connIDs[conn], pat: int32(s), step: int32(o.step), win: int32(w), due: p.since(due), sent: p.since(sent), queued: p.since(queued)}
	if err != nil {
		d.finish(p, sp, time.Now(), classify(err), release)
		idle <- s
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		res, err := h.Wait()
		doneAt := time.Now()
		class := ""
		if err != nil {
			class = classify(err)
		} else {
			o.advance()
			if !matches(res.Values, o.want) {
				d.mismatch("%s op %d: session %d step %d differs from the sequential oracle", p.name, i, s, o.step)
				class = "mismatch"
			}
		}
		d.finish(p, sp, doneAt, class, release)
		idle <- s
	}()
}

// finish records one resolved op.
func (d *runner) finish(p *phase, sp span, doneAt time.Time, class string, release func()) {
	sp.done = p.since(doneAt)
	sp.ok = class == ""
	switch {
	case sp.ok:
		p.succeeded.Add(1)
		if w := int(sp.win); w < len(p.ends) && sp.done <= p.ends[w] {
			p.completed[w].Add(1)
		}
	case class != "mismatch":
		p.fail(class)
	}
	if p.keep {
		p.mu.Lock()
		p.spans = append(p.spans, sp)
		p.mu.Unlock()
	}
	if release != nil {
		release()
	}
}

// runWindow runs the phase's next window from one sender: for one
// window's length an open loop sends ops on a fixed schedule whatever
// completes, timing each from when it was due, and a closed loop sends
// an op whenever one resolves. It returns once every op it sent has
// resolved.
func (d *runner) runWindow(p *phase) {
	w := p.windows
	p.windows++
	now := time.Now()
	if w == 0 {
		p.start = now
	}
	end := now.Add(window)
	p.ends[w] = p.since(end)
	if p.rate > 0 {
		interval := float64(time.Second) / p.rate
		for i := 0; i < int(p.rate*window.Seconds()) && !d.aborted.Load(); i++ {
			due := now.Add(time.Duration(float64(i) * interval))
			if dt := time.Until(due); dt > 0 {
				time.Sleep(dt)
			}
			d.send(p, w, due, nil)
		}
	} else {
		sem := make(chan struct{}, p.inFlight)
		for time.Now().Before(end) && !d.aborted.Load() {
			sem <- struct{}{}
			d.send(p, w, time.Now(), func() { <-sem })
		}
	}
	p.wg.Wait()
}

// runPhase runs all of the phase's windows back to back.
func (d *runner) runPhase(p *phase) *phase {
	for p.windows < len(p.ends) && !d.aborted.Load() {
		d.runWindow(p)
	}
	return p
}

// throughput is the median over a closed-loop phase's windows of its
// completions per second.
func (p *phase) throughput() float64 {
	var per []float64
	for i := 0; i < p.windows; i++ {
		per = append(per, float64(p.completed[i].Load())/window.Seconds())
	}
	return median(per)
}

// lateMs is how late the open-loop sender sent each op.
func (p *phase) lateMs() []float64 {
	out := make([]float64, 0, len(p.spans))
	for _, s := range p.spans {
		out = append(out, float64(s.sent-s.due)/1e6)
	}
	return out
}

// teardown retires every open session, tears the stack down and drops
// the runner's references to both, so a runner kept for its ledger
// holds no stack memory.
func (d *runner) teardown() {
	for _, s := range d.sessions {
		s.Close()
	}
	d.st.close()
	d.st, d.sessions, d.sessDst = nil, nil, nil
}

// checkMirrors re-derives every session oracle afresh: the
// incremental refold must equal RunSequential on the mirrored loop.
func (d *runner) checkMirrors() error {
	for i, o := range d.in.sessions {
		if !sameBits(o.want, o.mirror.RunSequential()) {
			return fmt.Errorf("session %d: incremental oracle drifted from RunSequential", i)
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
