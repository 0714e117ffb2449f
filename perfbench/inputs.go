package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/reduction"
	"repro/internal/trace"
	"repro/internal/workloads"
)

const (
	// hotPatterns and hotScale size the zipf population: the HotKeySet
	// regime templates at half scale.
	hotPatterns = 24
	hotScale    = 0.5
	zipfS       = 1.4

	// widePatterns is four times the engine's default 1024-entry
	// decision cache, so most wide_cold jobs miss it and pay
	// characterization and CLOCK eviction. wideScale keeps each pattern
	// small enough that the population and its expected results stay in
	// memory.
	widePatterns = 4096
	wideScale    = 0.05

	// streamLen is how many generated ops a run cycles through.
	streamLen = 1 << 16

	// sessionScale, sessionBatches and sessionBatchSize size each
	// session's DeltaStream (the batch size reduxserve -sessions uses).
	sessionScale     = 0.125
	sessionBatches   = 1024
	sessionBatchSize = 16
)

// hotKeyTemplates are the regime templates behind workloads.HotKeySet.
var hotKeyTemplates = []workloads.PatternSpec{
	{Dim: 4000, SPPercent: 70, CHR: 0.9, MO: 2, Locality: 0.6, Work: 6},
	{Dim: 3000, SPPercent: 40, CHR: 0.8, MO: 3, Locality: 0.3, Skew: 2, Work: 5},
	{Dim: 16000, SPPercent: 25, CHR: 0.3, MO: 3, Locality: 0.9, Work: 8},
	{Dim: 10000, SPPercent: 35, CHR: 0.3, MO: 2, Locality: 0.5, Work: 7},
}

// mixedTemplates are the regime templates behind workloads.MixedSet.
// Their contention targets are stated for two processors (the engine's
// fan-out here), so the population spreads over the rep, ll, sel and
// hash regimes instead of collapsing onto rep. The fifth scheme, lw,
// needs an array over twice the modelled 512 KiB L2 at high contention:
// thousands of such patterns do not fit a benchmark's memory.
var mixedTemplates = []workloads.PatternSpec{
	{Dim: 4000, SPPercent: 70, CHR: 0.9, MO: 2, Locality: 0.6, Work: 6},
	{Dim: 3000, SPPercent: 40, CHR: 0.8, MO: 3, Locality: 0.3, Skew: 2, Work: 5},
	{Dim: 120000, SPPercent: 0.2, CHR: 0.03, MO: 10, Locality: 0.1, Work: 12},
	{Dim: 16000, SPPercent: 25, CHR: 0.3, MO: 3, Locality: 0.9, Work: 8},
	{Dim: 60000, SPPercent: 12, CHR: 0.12, MO: 2, Locality: 0.95, Work: 10},
	{Dim: 10000, SPPercent: 35, CHR: 0.3, MO: 2, Locality: 0.5, Work: 7},
}

// inputs is everything a run sends, generated from the seed before the
// stack starts so generation never counts as set-up or heap.
type inputs struct {
	// Submit workloads: the pattern population, each pattern's
	// sequential result, the patterns warm-up submits, and the op stream
	// as population indices.
	pop    []*trace.Loop
	want   [][]float64
	warmup []int
	stream []int32

	// Session workloads: one delta stream and oracle per session.
	sessions []*sessionOracle
}

func genInputs(w workloadSpec, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	switch {
	case w.kind == kindSession:
		for i := 0; i < sessionCount; i++ {
			ds := workloads.NewDeltaStream(sessionBatches, sessionBatchSize, sessionScale, rng.Int63())
			in.sessions = append(in.sessions, newSessionOracle(ds))
		}
		return in
	case w.wide:
		in.pop = population(rng, mixedTemplates, widePatterns, wideScale, 2, "wide")
		in.stream = make([]int32, streamLen)
		for i := range in.stream {
			in.stream[i] = int32(rng.Intn(len(in.pop)))
		}
		// Warm-up primes connections and buffer pools with a fixed slice
		// of the stream; the cache it fills is evicted within the phase.
		for _, p := range in.stream[:64] {
			in.warmup = append(in.warmup, int(p))
		}
	default:
		in.pop = population(rng, hotKeyTemplates, hotPatterns, hotScale, 0, "hot")
		index := make(map[*trace.Loop]int32, len(in.pop))
		for i, l := range in.pop {
			index[l] = int32(i)
			in.warmup = append(in.warmup, i)
		}
		in.stream = make([]int32, streamLen)
		for i, l := range workloads.ZipfStream(in.pop, streamLen, zipfS, rng.Int63()) {
			in.stream[i] = index[l]
		}
	}
	in.want = make([][]float64, len(in.pop))
	for i, l := range in.pop {
		in.want[i] = l.RunSequential()
	}
	return in
}

// population builds n patterns cycling through the templates with
// seed-derived dimensions and generator seeds (chrProcs 0 keeps the
// templates' own contention basis).
func population(rng *rand.Rand, templates []workloads.PatternSpec, n int, scale float64, chrProcs int, prefix string) []*trace.Loop {
	loops := make([]*trace.Loop, n)
	for i := range loops {
		spec := templates[i%len(templates)]
		// Distinct dimensions give every pattern its own fingerprint.
		spec.Dim += 64*(i/len(templates)) + rng.Intn(64)
		spec.Seed = rng.Int63()
		if chrProcs > 0 {
			spec.CHRProcs = chrProcs
		}
		loops[i] = workloads.Generate(fmt.Sprintf("%s-%04d", prefix, i), spec, scale)
	}
	return loops
}

// matches is the oracle comparison: the relative tolerance reduxserve
// uses, since parallel schemes reassociate the reduction.
func matches(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			return false
		}
	}
	return true
}

// sessionOracle tracks the loop a session holds after each delta batch
// and that loop's sequential reduction. Rather than re-running
// RunSequential per batch it keeps, per element, the ascending flat
// positions that reference it, and refolds only the elements a batch
// touched, in position order: the same additions in the same order as
// RunSequential on DeltaStream.MirrorAt, so the two agree bit for bit
// (the tests pin this).
type sessionOracle struct {
	stream *workloads.DeltaStream
	mirror *trace.Loop
	offs   []int32
	byElem [][]int32
	want   []float64
	step   int
}

func newSessionOracle(ds *workloads.DeltaStream) *sessionOracle {
	o := &sessionOracle{stream: ds, mirror: ds.Base.Clone()}
	offs, refs := o.mirror.Flat()
	o.offs = offs
	o.byElem = make([][]int32, o.mirror.NumElems)
	for p, e := range refs {
		o.byElem[e] = append(o.byElem[e], int32(p))
	}
	o.want = o.mirror.RunSequential()
	return o
}

// next returns the batch for the session's next step.
func (o *sessionOracle) next() []reduction.RefDelta { return o.batchAt(o.step) }

// batchAt is the batch for a session step. Steps past the generated
// stream cycle through it again with every reference shifted by the
// cycle number: a batch repeated as is would mostly set references to
// the values they already hold, a cheaper op than the stream's, and
// sessions would speed up partway through a run.
func (o *sessionOracle) batchAt(step int) []reduction.RefDelta {
	n := len(o.stream.Batches)
	batch, cycle := o.stream.Batches[step%n], step/n
	if cycle == 0 {
		return batch
	}
	out := make([]reduction.RefDelta, len(batch))
	for i, d := range batch {
		out[i] = reduction.RefDelta{Pos: d.Pos, Ref: int32((int(d.Ref) + cycle) % o.mirror.NumElems)}
	}
	return out
}

// advance applies the next batch to the mirror and refolds the touched
// elements.
func (o *sessionOracle) advance() {
	batch := o.next()
	o.step++
	_, refs := o.mirror.Flat()
	var touched []int32
	for _, d := range batch {
		old := refs[d.Pos]
		if old == d.Ref {
			continue
		}
		o.byElem[old] = removeSorted(o.byElem[old], d.Pos)
		o.byElem[d.Ref] = insertSorted(o.byElem[d.Ref], d.Pos)
		refs[d.Pos] = d.Ref
		touched = append(touched, old, d.Ref)
	}
	op := o.mirror.Op
	for _, e := range touched {
		v := op.Neutral()
		for _, p := range o.byElem[e] {
			it := sort.Search(len(o.offs)-1, func(i int) bool { return o.offs[i+1] > p })
			v = op.Apply(v, trace.Value(it, int(p-o.offs[it]), e))
		}
		o.want[e] = v
	}
}

func removeSorted(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return append(s[:i], s[i+1:]...)
}

func insertSorted(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
