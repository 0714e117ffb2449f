package reduction

import (
	"fmt"

	"repro/internal/trace"
)

// This file is the incremental counterpart of the SegPlan/SegCache
// machinery in plan.go: where a SegPlan discovers sharing *between*
// members of one batch, a DeltaState exploits sharing *across time* for
// one long-lived loop. A streaming session registers its loop once; each
// update batch then mutates a handful of subscripts and re-reduces by
// recomputing only the segments those subscripts fall in, re-combining
// through the same pairwise tree every other path uses.
//
// Correctness rests on the same invariant plan.go documents: segments
// are accumulated in iteration order by the same kernels
// (accumFlatAdd / naiveAccumFlat) and folded in the same fixed tree
// association (combineTreeAdd / combineTreeOp), so an incremental
// recompute of touched segments is bit-for-bit identical to rebuilding
// every segment from scratch — the property delta_test.go pins with
// math.Float64bits across segment-straddling, empty and full-touch
// delta shapes.

// RefDelta is one subscript update: the reference at flat position Pos
// of the session's loop is redirected to element Ref. A delta batch is
// applied atomically between two reads.
type RefDelta struct {
	// Pos indexes the loop's flattened reference stream, in [0, TotalRefs).
	Pos int32
	// Ref is the new reduction element index, in [0, NumElems).
	Ref int32
}

// DeltaState is one streaming session's server-resident reduction state:
// a private mutable copy of the registered loop plus one partial-sum
// buffer per iteration segment, all valid between updates. It is the
// SegCache idea with the cross-batch verification stripped away — the
// state owns its loop, so slot content can never be stale.
//
// A DeltaState is not concurrency-safe; callers serialize Apply (the
// engine's Session mutex does).
type DeltaState struct {
	loop     *trace.Loop
	segIters int
	segs     int
	parts    [][]float64
	dirty    []bool
}

// DeltaStateBytes estimates the resident footprint of a session over l
// under the given segment width (0 picks DefaultSegIters for procs):
// the per-segment sum buffers plus the private copy of the loop's
// iteration structure. The server weighs it against its session memory
// budget before admitting an OPEN_SESSION.
func DeltaStateBytes(l *trace.Loop, segIters, procs int) int {
	if segIters <= 0 {
		segIters = DefaultSegIters(l.NumIters(), procs)
	}
	segs := (l.NumIters() + segIters - 1) / segIters
	return segs*l.NumElems*8 + l.TotalRefs()*4 + (l.NumIters()+1)*4
}

// NewDeltaState registers a session over l: the loop is deep-copied
// (the session mutates it), every segment's partial sum is computed,
// and, when dst is non-nil, the full reduction is combined into it
// (dst must hold NumElems elements). segIters <= 0 picks
// DefaultSegIters for procs. The segment count must fit the combine
// tree (maxSegTreeWidth).
func NewDeltaState(l *trace.Loop, segIters, procs int, ex *Exec, dst []float64) (*DeltaState, error) {
	checkProcs(procs)
	if l.NumElems <= 0 {
		return nil, fmt.Errorf("reduction: session loop %q has non-positive NumElems", l.Name)
	}
	if segIters <= 0 {
		segIters = DefaultSegIters(l.NumIters(), procs)
	}
	segs := (l.NumIters() + segIters - 1) / segIters
	if segs > maxSegTreeWidth {
		return nil, fmt.Errorf("reduction: %d session segments exceed the combine width %d", segs, maxSegTreeWidth)
	}
	s := &DeltaState{
		loop:     l.Clone(),
		segIters: segIters,
		segs:     segs,
		parts:    make([][]float64, segs),
		dirty:    make([]bool, segs),
	}
	for i := range s.parts {
		// Long-lived buffers: never pooled, so no later worker scratch can
		// alias a buffer a future read still combines from.
		s.parts[i] = make([]float64, l.NumElems)
	}
	for i := range s.dirty {
		s.dirty[i] = true
	}
	s.recompute(procs, ex)
	if dst != nil {
		s.combine(procs, ex, dst)
	}
	return s, nil
}

// Loop returns the session's private loop in its current (post-delta)
// state. Callers must not mutate it.
func (s *DeltaState) Loop() *trace.Loop { return s.loop }

// Segments returns the session's segment count.
func (s *DeltaState) Segments() int { return s.segs }

// SegIters returns the session's segment width in iterations.
func (s *DeltaState) SegIters() int { return s.segIters }

// Bytes reports the session's resident footprint (the admission-control
// accounting figure).
func (s *DeltaState) Bytes() int {
	return s.segs*s.loop.NumElems*8 + s.loop.TotalRefs()*4 + (s.loop.NumIters()+1)*4
}

// Apply mutates the session loop with one delta batch, recomputes only
// the segments the batch touched, and combines the rolling reduction
// into dst (length NumElems). Deltas must be sorted by strictly
// increasing Pos with every Pos in [0, TotalRefs) and every Ref in
// [0, NumElems); an invalid batch is rejected before any mutation, so
// the state is never half-updated. An empty batch recomputes nothing
// and re-reads the current state.
//
// The returned stats count segments recomputed fresh vs. reused intact
// — the per-update incremental win the session counters surface.
func (s *DeltaState) Apply(deltas []RefDelta, procs int, ex *Exec, dst []float64) (SegRunStats, error) {
	checkProcs(procs)
	offs, refs := s.loop.Flat()
	prev := int32(-1)
	for i, d := range deltas {
		if d.Pos <= prev {
			return SegRunStats{}, fmt.Errorf("reduction: delta %d position %d not strictly increasing (prev %d)", i, d.Pos, prev)
		}
		if int(d.Pos) >= len(refs) {
			return SegRunStats{}, fmt.Errorf("reduction: delta %d position %d out of range [0,%d)", i, d.Pos, len(refs))
		}
		if int(d.Ref) < 0 || int(d.Ref) >= s.loop.NumElems {
			return SegRunStats{}, fmt.Errorf("reduction: delta %d ref %d out of range [0,%d)", i, d.Ref, s.loop.NumElems)
		}
		prev = d.Pos
	}
	if len(dst) != s.loop.NumElems {
		return SegRunStats{}, fmt.Errorf("reduction: session destination holds %d elements, want %d", len(dst), s.loop.NumElems)
	}

	// Mutate, marking each touched segment. Deltas arrive sorted by
	// position and offsets are monotonic, so one merged forward scan maps
	// every position to its iteration (and segment) in O(deltas + iters).
	iter := 0
	for _, d := range deltas {
		refs[d.Pos] = d.Ref
		for int(offs[iter+1]) <= int(d.Pos) {
			iter++
		}
		s.dirty[iter/s.segIters] = true
	}

	st := s.recompute(procs, ex)
	s.combine(procs, ex, dst)
	return st, nil
}

// recompute re-accumulates every dirty segment in iteration order and
// clears the dirty marks, returning the computed/reused split.
func (s *DeltaState) recompute(procs int, ex *Exec) SegRunStats {
	var st SegRunStats
	for _, d := range s.dirty {
		if d {
			st.Computed++
		} else {
			st.Reused++
		}
	}
	if st.Computed == 0 {
		return st
	}
	fast := ex.fastAdd(s.loop)
	neutral := s.loop.Op.Neutral()
	offs, refs := s.loop.Flat()
	iters := s.loop.NumIters()
	parallelFor(procs, func(pr int) {
		for seg := pr; seg < s.segs; seg += procs {
			if !s.dirty[seg] {
				continue
			}
			buf := s.parts[seg]
			lo := seg * s.segIters
			hi := lo + s.segIters
			if hi > iters {
				hi = iters
			}
			fill(buf, neutral)
			if fast {
				accumFlatAdd(buf, offs, refs, lo, hi)
			} else {
				naiveAccumFlat(buf, s.loop, lo, hi)
			}
		}
	})
	for i := range s.dirty {
		s.dirty[i] = false
	}
	return st
}

// combine folds every segment's partial sum into dst through the
// pairwise tree, in element blocks across procs goroutines. A loop with
// no iterations has no segments and reduces to the neutral array.
func (s *DeltaState) combine(procs int, ex *Exec, dst []float64) {
	if s.segs == 0 {
		fill(dst[:s.loop.NumElems], s.loop.Op.Neutral())
		return
	}
	fast := ex.fastAdd(s.loop)
	parallelFor(procs, func(pr int) {
		lo, hi := BlockBounds(s.loop.NumElems, procs, pr)
		if fast {
			combineTreeAdd(dst, s.parts, lo, hi)
		} else {
			combineTreeOp(dst, s.parts, lo, hi, s.loop.Op)
		}
	})
}
