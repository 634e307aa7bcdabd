package faultsim

import (
	"context"
	"testing"

	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/pattern"
)

// Parallel measurement must be bit-identical to the serial one.
func TestParallelMatchesSerial(t *testing.T) {
	c := circuits.ALU74181()
	faults := fault.Collapse(c)
	genA := pattern.NewUniform(len(c.Inputs), 31)
	genB := pattern.NewUniform(len(c.Inputs), 31)
	serial := measure(t, c, faults, genA, 1000, Options{})
	parallel := measure(t, c, faults, genB, 1000, Options{Workers: 4})
	if serial.Applied != parallel.Applied {
		t.Fatal("applied mismatch")
	}
	for i := range faults {
		if serial.Detected[i] != parallel.Detected[i] {
			t.Fatalf("fault %d: serial %d parallel %d", i, serial.Detected[i], parallel.Detected[i])
		}
	}
}

func TestParallelDegenerateWorkerCounts(t *testing.T) {
	c := circuits.C17()
	faults := fault.Collapse(c)
	for _, w := range []int{-1, 0, 1, 100} {
		gen := pattern.NewUniform(len(c.Inputs), 7)
		res := measure(t, c, faults, gen, 128, Options{Workers: w})
		if res.Applied != 128 {
			t.Errorf("workers=%d: applied %d", w, res.Applied)
		}
		if res.Coverage() < 1 {
			t.Errorf("workers=%d: coverage %v", w, res.Coverage())
		}
	}
}

func TestParallelRace(t *testing.T) {
	// Exercised under -race in CI runs; keep the workload meaningful.
	c := circuits.Mult8()
	faults := fault.Collapse(c)
	gen := pattern.NewUniform(len(c.Inputs), 9)
	res := measure(t, c, faults, gen, 256, Options{Workers: 8})
	if res.Coverage() <= 0.5 {
		t.Errorf("implausible MULT coverage %v", res.Coverage())
	}
}

// The parallel coverage curve must be identical to the serial one for
// any worker count: detection words are partition-independent and the
// dropping pass runs serially between blocks.
func TestCoverageCurveParallelMatchesSerial(t *testing.T) {
	for _, name := range []string{"mult", "div"} {
		c, ok := circuits.Lookup(name)
		if !ok {
			t.Fatalf("unknown circuit %s", name)
		}
		faults := fault.Collapse(c)
		checkpoints := []int{10, 100, 500, 1000}
		genA := pattern.NewUniform(len(c.Inputs), 13)
		serial := coverage(t, c, faults, genA, checkpoints, Options{})
		for _, w := range []int{2, 5, 16} {
			genB := pattern.NewUniform(len(c.Inputs), 13)
			parallel := coverage(t, c, faults, genB, checkpoints, Options{Workers: w})
			if len(parallel) != len(serial) {
				t.Fatalf("%s workers=%d: %d points != %d", name, w, len(parallel), len(serial))
			}
			for i := range serial {
				if parallel[i] != serial[i] {
					t.Fatalf("%s workers=%d: point %d = %+v, serial %+v", name, w, i, parallel[i], serial[i])
				}
			}
		}
	}
}

// Cancelling mid-curve must return the context error and a nil curve.
func TestCoverageCurveParallelCancellation(t *testing.T) {
	c := circuits.Mult8()
	faults := fault.Collapse(c)
	gen := pattern.NewUniform(len(c.Inputs), 3)
	ctx, cancel := context.WithCancel(context.Background())
	blocks := 0
	out, err := NewPlan(c, faults).CoverageCurveCtx(ctx, gen, []int{100000}, Options{Workers: 4}, func(done, total int) {
		blocks++
		if blocks == 2 {
			cancel()
		}
	})
	if err != context.Canceled || out != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", out, err)
	}
}

// A parallel MeasureDetectionCtx must honor cancellation and report
// progress like the serial path.
func TestMeasureDetectionParallelCtx(t *testing.T) {
	c := circuits.ALU74181()
	faults := fault.Collapse(c)
	gen := pattern.NewUniform(len(c.Inputs), 5)
	var last int
	res, err := NewPlan(c, faults).MeasureDetectionCtx(context.Background(), gen, 320, Options{Workers: 4}, func(done, total int) {
		if done <= last || total != 320 {
			t.Fatalf("bad progress (%d, %d) after %d", done, total, last)
		}
		last = done
	})
	if err != nil || res.Applied != 320 {
		t.Fatalf("got (%+v, %v)", res, err)
	}
	if last != 320 {
		t.Fatalf("final progress %d, want 320", last)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gen2 := pattern.NewUniform(len(c.Inputs), 5)
	if _, err := NewPlan(c, faults).MeasureDetectionCtx(ctx, gen2, 320, Options{Workers: 4}, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
