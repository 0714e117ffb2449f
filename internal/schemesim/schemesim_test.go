package schemesim

import (
	"math"
	"testing"

	"repro/internal/vtime"
	"repro/internal/workloads"
)

// TestSelectPinsCycleCounts pins the cost models' exact output on three
// loops spanning the decision regimes (dense/contended, moderate, very
// sparse with high mobility): the recommendation, the measured order,
// the sequential time and every scheme's Init/Loop/Merge cycles. The
// paper's Figure 3 and Figure 6 numbers are sums of these, so a change
// to a model or to the address layout that shifts them fails here
// instead of silently moving the reproduced figures. The other tests
// check the models' qualitative shape; this one checks the values.
func TestSelectPinsCycleCounts(t *testing.T) {
	type phases struct{ init, loop, merge float64 }
	cases := []struct {
		spec  workloads.PatternSpec
		rec   string
		order string
		seq   float64
		want  map[string]phases
	}{
		{
			spec:  workloads.PatternSpec{Dim: 4000, SPPercent: 25, CHR: 0.9, MO: 2, Locality: 0.9, Work: 20, Seed: 6},
			rec:   "rep",
			order: "lw > rep > sel > ll > hash",
			seq:   533162,
			want: map[string]phases{
				"lw":   {18368, 60206.25, 0},
				"rep":  {13750, 44305, 28204.125},
				"sel":  {31329, 80690.75, 9200.25},
				"ll":   {0, 77865, 164607.23095238203},
				"hash": {5014, 87067, 164915.4809523822},
			},
		},
		{
			spec:  workloads.PatternSpec{Dim: 60000, SPPercent: 2, CHR: 0.3, MO: 2, Locality: 0.5, Work: 30, Invocations: 20, Seed: 7},
			rec:   "ll",
			order: "sel > lw > ll > rep > hash",
			seq:   2.99392e+06,
			want: map[string]phases{
				"sel":  {9660.95, 418366.25, 12256.5},
				"lw":   {4568.400000000001, 490918, 0},
				"ll":   {0, 378606, 499057.75},
				"rep":  {205500, 271073, 420111.75},
				"hash": {19906, 502025, 442007.25},
			},
		},
		{
			spec:  workloads.PatternSpec{Dim: 100000, SPPercent: 0.2, CHR: 0.12, MO: 20, Locality: 0.3, Work: 200, RunLength: 2, Seed: 8},
			rec:   "hash",
			order: "sel > hash > ll > lw > rep",
			seq:   2.501756e+06,
			want: map[string]phases{
				"sel":  {80021.5, 252160.25, 4212},
				"hash": {2532, 287294, 86461.75},
				"ll":   {0, 616273, 105630},
				"lw":   {46318, 791219.5, 0},
				"rep":  {342450, 254939.25, 699851.875},
			},
		},
	}
	// Relative tolerance only absorbs fused multiply-adds on targets
	// whose compiler may fuse; on amd64 the values are exact.
	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
	}
	for i, c := range cases {
		l := workloads.Generate("pin", c.spec, 1)
		sel := Select(l, 8, vtime.Config{})
		if sel.Recommendation.Scheme != c.rec {
			t.Errorf("case %d: recommended %s, want %s", i, sel.Recommendation.Scheme, c.rec)
		}
		if got := Order(sel.Ranking); got != c.order {
			t.Errorf("case %d: order %q, want %q", i, got, c.order)
		}
		if seq := SimulateSequential(l, vtime.DefaultConfig()); !near(seq, c.seq) {
			t.Errorf("case %d: sequential %v cycles, want %v", i, seq, c.seq)
		}
		for _, m := range sel.Ranking {
			w := c.want[m.Scheme]
			b := m.Breakdown
			if !near(b.Init, w.init) || !near(b.Loop, w.loop) || !near(b.Merge, w.merge) {
				t.Errorf("case %d %s: init/loop/merge %v/%v/%v, want %v/%v/%v",
					i, m.Scheme, b.Init, b.Loop, b.Merge, w.init, w.loop, w.merge)
			}
		}
	}
}
