package reduction

import (
	"testing"

	"repro/internal/trace"
)

// decodeDeltaInput turns fuzz bytes into a session loop, its open
// parameters and a stream of valid delta batches. The first seven bytes
// pick the shape: op, elements, iterations, procs, segment width, loop
// seed, and whether execution draws from a buffer pool. Each following
// batch is a count byte and then two bytes per delta: a position gap
// (positions stay sorted and strictly increasing) and the new element.
// A batch ends early when its next position would fall off the loop.
func decodeDeltaInput(data []byte) (l *trace.Loop, segIters, procs int, pooled bool, batches [][]RefDelta) {
	if len(data) < 7 {
		return nil, 0, 0, false, nil
	}
	ops := []trace.Op{trace.OpAdd, trace.OpMul, trace.OpMax, trace.OpMin}
	op := ops[int(data[0])%len(ops)]
	elems := 1 + int(data[1])%64
	iters := int(data[2]) % 96
	procs = 1 + int(data[3])%4
	segIters = 1 + int(data[4])%16
	if segs := (iters + segIters - 1) / segIters; segs > maxSegTreeWidth {
		segIters = (iters + maxSegTreeWidth - 1) / maxSegTreeWidth
	}
	l = deltaLoop(elems, iters, op, int64(data[5]))
	pooled = data[6]&1 == 1
	data = data[7:]

	total := l.TotalRefs()
	for len(data) > 0 && len(batches) < 16 {
		n := int(data[0]) % 8
		data = data[1:]
		batch := []RefDelta{}
		pos := -1
		for ; n > 0 && len(data) >= 2; n-- {
			pos += 1 + int(data[0])%8
			ref := int32(int(data[1]) % elems)
			data = data[2:]
			if pos >= total {
				break
			}
			batch = append(batch, RefDelta{Pos: int32(pos), Ref: ref})
		}
		batches = append(batches, batch)
	}
	return l, segIters, procs, pooled, batches
}

// FuzzDeltaState drives the delta-path contract with fuzzer-chosen loops
// and delta streams: every read of the session's rolling reduction must
// be bit-for-bit identical to a from-scratch rebuild of a mirror loop
// mutated the same way (the oracle delta_test.go uses). The seed corpus
// lives in testdata/fuzz/FuzzDeltaState.
func FuzzDeltaState(f *testing.F) {
	f.Add([]byte{0, 40, 60, 2, 7, 1, 1, 3, 0, 5, 2, 9, 7, 1})
	f.Add([]byte{1, 8, 95, 4, 1, 2, 0, 7, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6})
	f.Add([]byte{2, 63, 0, 1, 16, 3, 1, 0})
	f.Add([]byte{3, 1, 33, 3, 15, 4, 0, 4, 7, 0, 7, 0, 7, 0, 7, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		l, segIters, procs, pooled, batches := decodeDeltaInput(data)
		if l == nil {
			return
		}
		var ex *Exec
		if pooled {
			ex = &Exec{Pool: NewBufferPool()}
		}
		mirror := l.Clone()
		dst := make([]float64, l.NumElems)
		st, err := NewDeltaState(l, segIters, procs, ex, dst)
		if err != nil {
			t.Fatalf("NewDeltaState: %v", err)
		}
		want := make([]float64, l.NumElems)
		oracleRebuild(mirror, st.SegIters(), want)
		requireBitEqual(t, want, dst, "open read")

		for i, ds := range batches {
			if _, err := st.Apply(ds, procs, ex, dst); err != nil {
				t.Fatalf("batch %d %v: Apply: %v", i, ds, err)
			}
			applyMirror(mirror, ds)
			oracleRebuild(mirror, st.SegIters(), want)
			requireBitEqual(t, want, dst, "delta read")
		}
	})
}
