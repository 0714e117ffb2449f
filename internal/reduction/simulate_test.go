package reduction_test

// Cost-model checks of each scheme, charged through package schemesim.
// They sit beside the schemes they characterize, in the external test
// package because schemesim imports reduction.

import (
	"math/rand"
	"testing"

	"repro/internal/reduction"
	"repro/internal/schemesim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

func TestSimulateBreakdownShapes(t *testing.T) {
	l := reduction.RandomLoop(2000, 8000, 2, 21)
	for _, s := range reduction.All() {
		m := vtime.NewMachine(8, vtime.DefaultConfig())
		m.EnableSharingTracking()
		b := schemesim.Simulate(s, l, m)
		if b.Loop <= 0 {
			t.Errorf("%s: Loop phase must be positive, got %g", s.Name(), b.Loop)
		}
		if b.Init < 0 || b.Merge < 0 {
			t.Errorf("%s: negative phase: %+v", s.Name(), b)
		}
		if m.Now() != b.Total() {
			t.Errorf("%s: machine clock %g != breakdown total %g", s.Name(), m.Now(), b.Total())
		}
	}
}

func TestSimulateLocalWriteHasNoMerge(t *testing.T) {
	l := reduction.RandomLoop(1000, 4000, 2, 5)
	m := vtime.NewMachine(8, vtime.DefaultConfig())
	b := schemesim.Simulate(reduction.LocalWrite{}, l, m)
	if b.Merge != 0 {
		t.Errorf("lw merge = %g, want 0", b.Merge)
	}
}

func TestSimulateRepInitScalesWithArray(t *testing.T) {
	small := reduction.RandomLoop(1000, 1000, 1, 1)
	big := reduction.RandomLoop(100000, 1000, 1, 1)
	mS := vtime.NewMachine(4, vtime.DefaultConfig())
	mB := vtime.NewMachine(4, vtime.DefaultConfig())
	bS := schemesim.Simulate(reduction.Rep{}, small, mS)
	bB := schemesim.Simulate(reduction.Rep{}, big, mB)
	if bB.Init < 10*bS.Init {
		t.Errorf("rep Init should scale ~linearly with array size: small=%g big=%g", bS.Init, bB.Init)
	}
}

func TestSimulateHashBeatsRepWhenVerySparse(t *testing.T) {
	// Spice-like: huge array, tiny touched set. hash must beat rep in
	// virtual time (this is the paper's headline qualitative claim for
	// hash reductions).
	rng := rand.New(rand.NewSource(17))
	l := trace.NewLoop("spicey", 200000)
	l.WorkPerIter = 50
	hot := make([]int32, 300)
	for i := range hot {
		hot[i] = int32(rng.Intn(200000))
	}
	for i := 0; i < 4000; i++ {
		l.AddIter(hot[rng.Intn(len(hot))], hot[rng.Intn(len(hot))])
	}
	mh := vtime.NewMachine(8, vtime.DefaultConfig())
	mr := vtime.NewMachine(8, vtime.DefaultConfig())
	th := schemesim.Simulate(reduction.Hash{}, l, mh).Total()
	tr := schemesim.Simulate(reduction.Rep{}, l, mr).Total()
	if th >= tr {
		t.Errorf("hash (%g) should beat rep (%g) on very sparse pattern", th, tr)
	}
}

func TestSimulateRepBeatsHashWhenDense(t *testing.T) {
	// Small dense array with high contention: rep must beat hash.
	l := reduction.ClusteredLoop(512, 20000, 23)
	l.WorkPerIter = 5
	mh := vtime.NewMachine(8, vtime.DefaultConfig())
	mr := vtime.NewMachine(8, vtime.DefaultConfig())
	th := schemesim.Simulate(reduction.Hash{}, l, mh).Total()
	tr := schemesim.Simulate(reduction.Rep{}, l, mr).Total()
	if tr >= th {
		t.Errorf("rep (%g) should beat hash (%g) on dense contended pattern", tr, th)
	}
}
