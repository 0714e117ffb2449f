// Package schemesim is the virtual-time half of the paper's software
// reduction library: it replays each scheme's memory traffic and
// computation on a vtime.Machine and returns the Init/Loop/Merge
// breakdown of Figure 6, and ranks all schemes by that simulated time so
// the decision algorithm (package adapt) can be validated the way the
// paper's Figure 3 does ("Recommended scheme" column vs. the measured
// ordering in the "Experimental Result" column).
//
// The executable schemes live in package reduction; this package only
// models them, so serving code that runs reductions never links the
// cycle simulator.
package schemesim

import (
	"fmt"
	"sort"

	"repro/internal/adapt"
	"repro/internal/pattern"
	"repro/internal/reduction"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Abstract address-space layout used by the scheme models. The shared
// reduction array w, the shared subscript stream x, and each processor's
// private structures occupy disjoint regions (see vtime.PrivateBase).
// Bases carry distinct line-granularity offsets so different arrays do
// not all alias cache set 0 the way raw power-of-two bases would.
const (
	sharedWBase     = int64(1)<<20 + 7*64  // shared reduction array
	sharedXBase     = int64(1)<<32 + 37*64 // shared subscript/index stream (read-only)
	sharedRemapBase = int64(3)<<30 + 53*64 // shared remap table (sel)
	privArray       = int64(0)             // offset of private replicated array
	privFlags       = int64(1)<<34 + 17*64 // offset of private init-flag / link array
	privTable       = int64(2)<<34 + 29*64 // offset of private hash table / remap
)

// Simulate replays scheme s's work on the virtual machine and returns the
// phase breakdown in cycles. The machine's clock advances.
func Simulate(s reduction.Scheme, l *trace.Loop, m *vtime.Machine) stats.Breakdown {
	switch s.(type) {
	case reduction.Rep:
		return simulateRep(l, m)
	case reduction.LinkedList:
		return simulateLinkedList(l, m)
	case reduction.Selective:
		return simulateSelective(l, m)
	case reduction.LocalWrite:
		return simulateLocalWrite(l, m)
	case reduction.Hash:
		return simulateHash(l, m)
	}
	panic(fmt.Sprintf("schemesim: no cost model for scheme %q", s.Name()))
}

// loadIterRefs charges the reads of iteration i's subscripts from the
// shared index stream. refPos is the running global reference position so
// that consecutive iterations stream through the same cache lines; the
// stream is sequential, so its misses overlap.
func loadIterRefs(cpu *vtime.CPU, refPos int, n int) {
	for k := 0; k < n; k++ {
		cpu.StreamLoad(sharedXBase + int64(refPos+k)*4)
	}
}

// refOffsets returns, for each processor's block start, the global
// reference position where that block begins in the flattened ref stream.
func refOffsets(l *trace.Loop, procs int) []int {
	offs := make([]int, procs)
	pos := 0
	next := 0
	for p := 0; p < procs; p++ {
		lo, _ := reduction.BlockBounds(l.NumIters(), procs, p)
		for next < lo {
			pos += len(l.Iter(next))
			next++
		}
		offs[p] = pos
	}
	return offs
}

// Measured is one scheme's simulated performance on a loop instance.
type Measured struct {
	// Scheme is the paper abbreviation.
	Scheme string
	// Breakdown is the Init/Loop/Merge virtual-time split.
	Breakdown stats.Breakdown
	// Speedup is sequential virtual time / parallel virtual time.
	Speedup float64
}

// SimulateSequential charges the loop's sequential execution (direct
// updates into the shared array, no privatization) on a one-processor
// virtual machine and returns its virtual time.
func SimulateSequential(l *trace.Loop, cfg vtime.Config) float64 {
	m := vtime.NewMachine(1, cfg)
	m.Serial(func(cpu *vtime.CPU) {
		pos := 0
		for i := 0; i < l.NumIters(); i++ {
			refs := l.Iter(i)
			cpu.Compute(l.WorkPerIter)
			for k := range refs {
				cpu.Load(sharedXBase + int64(pos+k)*4)
			}
			pos += len(refs)
			for _, idx := range refs {
				addr := sharedWBase + int64(idx)*8
				cpu.Load(addr)
				cpu.Compute(1)
				cpu.Store(addr)
			}
		}
	})
	return m.Now()
}

// Rank simulates every scheme in the library on a procs-processor virtual
// machine and returns them sorted by ascending virtual time (best first),
// with speedups relative to the sequential execution.
func Rank(l *trace.Loop, procs int, cfg vtime.Config) []Measured {
	seq := SimulateSequential(l, cfg)
	out := make([]Measured, 0, len(reduction.All()))
	for _, s := range reduction.All() {
		m := vtime.NewMachine(procs, cfg)
		m.EnableSharingTracking()
		b := Simulate(s, l, m)
		out = append(out, Measured{
			Scheme:    s.Name(),
			Breakdown: b,
			Speedup:   stats.Speedup(seq, b.Total()),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Breakdown.Total() < out[j].Breakdown.Total()
	})
	return out
}

// Order formats a ranking the way Figure 3's "Experimental Result" column
// does: scheme names in decreasing speedup order separated by " > ".
func Order(ms []Measured) string {
	s := ""
	for i, m := range ms {
		if i > 0 {
			s += " > "
		}
		s += m.Scheme
	}
	return s
}

// Selection is the full output of adaptive selection on a loop instance.
type Selection struct {
	Profile        *pattern.Profile
	Recommendation adapt.Recommendation
	Ranking        []Measured
	// Hit reports whether the recommended scheme was also the fastest in
	// the measured ranking.
	Hit bool
}

// Select characterizes the loop, runs the decision algorithm, measures
// all schemes and reports whether the recommendation hit the measured
// optimum. This is the whole Section 4 pipeline in one call.
func Select(l *trace.Loop, procs int, cfg vtime.Config) Selection {
	if cfg.LineBytes == 0 {
		cfg = vtime.DefaultConfig()
	}
	prof := pattern.Characterize(l, procs, cfg.L2Bytes)
	rec := adapt.Recommend(prof)
	rank := Rank(l, procs, cfg)
	return Selection{
		Profile:        prof,
		Recommendation: rec,
		Ranking:        rank,
		Hit:            len(rank) > 0 && rank[0].Scheme == rec.Scheme,
	}
}
