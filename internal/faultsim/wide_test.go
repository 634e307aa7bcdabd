package faultsim

import (
	"context"
	"os"
	"runtime"
	"testing"

	"protest/internal/fault"
	"protest/internal/pattern"
)

// TestMain raises GOMAXPROCS so the parallel paths stay exercised even
// on single-CPU CI containers: parallelWorkers now clamps worker
// counts to GOMAXPROCS, which would silently turn every parallel test
// serial on one core.  GOMAXPROCS may legally exceed the physical CPU
// count; correctness tests only need the goroutines to exist.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

var wideWidths = []int{1, 4, 8}

// TestWideChunkIdentity drives the wide engine chunk-by-chunk against
// the narrow engine block-by-block on the same pattern stream and
// requires lane-for-lane identical detection words, including the
// ragged final chunk.
func TestWideChunkIdentity(t *testing.T) {
	for _, c := range engineTestCircuits() {
		faults := fault.Collapse(c)
		plan := NewPlan(c, faults)
		narrow := plan.AcquireEngine()
		const nBlocks = 11 // 11 ≡ 3 mod 8 and 3 mod 4: ragged at both widths
		refWords := make([][]uint64, nBlocks)
		refDet := make([][]uint64, nBlocks)
		gen := pattern.NewUniform(len(c.Inputs), 42)
		words := make([]uint64, len(c.Inputs))
		for b := 0; b < nBlocks; b++ {
			gen.NextBlock(words)
			det := make([]uint64, len(faults))
			narrow.SimulateChunk(words, det, nil)
			refWords[b] = append([]uint64(nil), words...)
			refDet[b] = det
		}
		narrow.Release()

		for _, w := range wideWidths {
			e := plan.AcquireWideEngine(w)
			if e.Width() != w {
				t.Fatalf("%s: AcquireWideEngine(%d).Width() = %d", c.Name, w, e.Width())
			}
			gen := pattern.NewUniform(len(c.Inputs), 42)
			in := make([]uint64, len(c.Inputs)*w)
			det := make([]uint64, len(faults)*w)
			for base := 0; base < nBlocks; base += w {
				k := min(w, nBlocks-base)
				gen.NextBlocks(in, w, k)
				for i := range c.Inputs {
					for l := 0; l < k; l++ {
						if in[i*w+l] != refWords[base+l][i] {
							t.Fatalf("%s width %d: input stream diverges at block %d", c.Name, w, base+l)
						}
					}
				}
				e.SimulateChunk(in, det, nil)
				for fi := range faults {
					for l := 0; l < k; l++ {
						if got, exp := det[fi*w+l], refDet[base+l][fi]; got != exp {
							t.Fatalf("%s width %d block %d fault %v: wide %016x != narrow %016x",
								c.Name, w, base+l, faults[fi], got, exp)
						}
					}
				}
			}
			e.Release()
		}
	}
}

// TestWideMeasureDetectionIdentity compares whole measurements across
// widths and worker counts: detection counts and PSim must match the
// narrow serial reference exactly.
func TestWideMeasureDetectionIdentity(t *testing.T) {
	for _, c := range engineTestCircuits() {
		faults := fault.Collapse(c)
		plan := NewPlan(c, faults)
		const n = 1000 // not a multiple of 64, nor of 64*width
		ref, err := plan.MeasureDetectionCtx(context.Background(),
			pattern.NewUniform(len(c.Inputs), 3), n, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range wideWidths {
			for _, workers := range []int{1, 3} {
				got, err := plan.MeasureDetectionCtx(context.Background(),
					pattern.NewUniform(len(c.Inputs), 3), n,
					Options{Width: w, Workers: workers}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got.Applied != ref.Applied {
					t.Fatalf("%s width %d workers %d: applied %d != %d",
						c.Name, w, workers, got.Applied, ref.Applied)
				}
				for i := range faults {
					if got.Detected[i] != ref.Detected[i] {
						t.Fatalf("%s width %d workers %d fault %v: detected %d != %d",
							c.Name, w, workers, faults[i], got.Detected[i], ref.Detected[i])
					}
					if got.PSim(i) != ref.PSim(i) {
						t.Fatalf("%s width %d workers %d fault %v: PSim mismatch",
							c.Name, w, workers, faults[i])
					}
				}
			}
		}
	}
}

// TestWideCoverageCurveIdentity compares fault-dropping coverage curves
// across widths and worker counts against the narrow serial curve, on
// checkpoints that are deliberately not multiples of 64 (nor 64*W).
func TestWideCoverageCurveIdentity(t *testing.T) {
	cps := []int{10, 100, 500, 777, 1500}
	for _, c := range engineTestCircuits() {
		faults := fault.Collapse(c)
		plan := NewPlan(c, faults)
		ref, err := plan.CoverageCurveCtx(context.Background(),
			pattern.NewUniform(len(c.Inputs), 11), cps, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range wideWidths {
			for _, workers := range []int{1, 3} {
				got, err := plan.CoverageCurveCtx(context.Background(),
					pattern.NewUniform(len(c.Inputs), 11), cps,
					Options{Width: w, Workers: workers}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(ref) {
					t.Fatalf("%s width %d: %d points != %d", c.Name, w, len(got), len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s width %d workers %d: point %d %+v != %+v",
							c.Name, w, workers, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestWideCaptureIdentity pins the capture path (BIST response
// composition): detection words, good output words and every fault's
// faulty output words must match the narrow capture lane for lane.
func TestWideCaptureIdentity(t *testing.T) {
	for _, c := range engineTestCircuits()[:6] {
		faults := fault.Collapse(c)
		plan := NewPlan(c, faults)
		narrow := plan.AcquireEngine()
		nOut := len(c.Outputs)

		const nBlocks = 7 // ragged at width 4 and 8
		type blockRef struct {
			det     []uint64
			goodOut []uint64
			fOut    [][]uint64
		}
		refs := make([]blockRef, nBlocks)
		gen := pattern.NewUniform(len(c.Inputs), 5)
		words := make([]uint64, len(c.Inputs))
		for b := 0; b < nBlocks; b++ {
			gen.NextBlock(words)
			r := blockRef{
				det:     make([]uint64, len(faults)),
				goodOut: make([]uint64, nOut),
				fOut:    make([][]uint64, len(faults)),
			}
			narrow.SimulateChunkOutputs(words, r.det)
			narrow.GoodOutputWords(r.goodOut)
			for fi := range faults {
				r.fOut[fi] = make([]uint64, nOut)
				narrow.FaultOutputs(fi, r.fOut[fi])
			}
			refs[b] = r
		}
		narrow.Release()

		for _, w := range wideWidths {
			e := plan.AcquireWideEngine(w)
			gen := pattern.NewUniform(len(c.Inputs), 5)
			in := make([]uint64, len(c.Inputs)*w)
			det := make([]uint64, len(faults)*w)
			goodOut := make([]uint64, nOut*w)
			fOut := make([]uint64, nOut*w)
			for base := 0; base < nBlocks; base += w {
				k := min(w, nBlocks-base)
				gen.NextBlocks(in, w, k)
				e.SimulateChunkOutputs(in, det)
				e.GoodOutputWords(goodOut)
				for l := 0; l < k; l++ {
					r := &refs[base+l]
					for fi := range faults {
						if det[fi*w+l] != r.det[fi] {
							t.Fatalf("%s width %d block %d fault %v: capture det mismatch",
								c.Name, w, base+l, faults[fi])
						}
					}
					for i := 0; i < nOut; i++ {
						if goodOut[i*w+l] != r.goodOut[i] {
							t.Fatalf("%s width %d block %d: good output %d mismatch",
								c.Name, w, base+l, i)
						}
					}
				}
				for fi := range faults {
					e.FaultOutputs(fi, fOut)
					for l := 0; l < k; l++ {
						for i := 0; i < nOut; i++ {
							if fOut[i*w+l] != refs[base+l].fOut[fi][i] {
								t.Fatalf("%s width %d block %d fault %v: faulty output %d mismatch",
									c.Name, w, base+l, faults[fi], i)
							}
						}
					}
				}
			}
			e.Release()
		}
	}
}

// TestOptionsWidthValidation rejects unsupported widths with an error,
// not a panic, on both measurement entry points.
func TestOptionsWidthValidation(t *testing.T) {
	c := engineTestCircuits()[0]
	faults := fault.Collapse(c)
	plan := NewPlan(c, faults)
	for _, bad := range []int{-1, 2, 3, 16} {
		if _, err := plan.MeasureDetectionCtx(context.Background(),
			pattern.NewUniform(len(c.Inputs), 1), 128, Options{Width: bad}, nil); err == nil {
			t.Fatalf("MeasureDetectionCtx accepted width %d", bad)
		}
		if _, err := plan.CoverageCurveCtx(context.Background(),
			pattern.NewUniform(len(c.Inputs), 1), []int{128}, Options{Width: bad}, nil); err == nil {
			t.Fatalf("CoverageCurveCtx accepted width %d", bad)
		}
	}
}

// TestParallelWorkersClamp pins the Workers contract: negative selects
// GOMAXPROCS, values above GOMAXPROCS clamp to it, small values pass
// through.
func TestParallelWorkersClamp(t *testing.T) {
	maxProcs := runtime.GOMAXPROCS(0)
	if got := parallelWorkers(-1, 10); got != maxProcs {
		t.Fatalf("parallelWorkers(-1) = %d, want %d", got, maxProcs)
	}
	if got := parallelWorkers(maxProcs+7, 10); got != maxProcs {
		t.Fatalf("parallelWorkers(max+7) = %d, want %d", got, maxProcs)
	}
	if got := parallelWorkers(2, 10); got != 2 {
		t.Fatalf("parallelWorkers(2) = %d, want 2", got)
	}
	if got := parallelWorkers(8, 0); got != 1 {
		t.Fatalf("parallelWorkers with no faults = %d, want 1", got)
	}
}
