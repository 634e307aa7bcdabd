package faultsim

import (
	"context"
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/pattern"
)

// engineTestCircuits returns the paper circuits plus a batch of random
// fanout-heavy circuits the equivalence properties run on.
func engineTestCircuits() []*circuit.Circuit {
	cs := []*circuit.Circuit{
		circuits.C17(),
		circuits.ALU74181(),
		circuits.Mult8(),
		circuits.Div16(),
		circuits.Comp24(),
	}
	for seed := uint64(1); seed <= 8; seed++ {
		cs = append(cs, circuits.Random(circuits.RandomOptions{
			Inputs:   6 + int(seed),
			Gates:    80,
			Outputs:  3,
			Seed:     seed,
			MaxArity: 4,
			Locality: 12,
		}))
	}
	return cs
}

// TestEngineBlockIdentity drives the FFR engine and the naive oracle
// with the same pattern blocks and requires word-for-word identical
// detection words for every fault.
func TestEngineBlockIdentity(t *testing.T) {
	for _, c := range engineTestCircuits() {
		faults := fault.Collapse(c)
		plan := NewPlan(c, faults)
		e := NewEngine(plan)
		naive := New(c)
		gen := pattern.NewUniform(len(c.Inputs), 7)
		words := make([]uint64, len(c.Inputs))
		detF := make([]uint64, len(faults))
		detN := make([]uint64, len(faults))
		for block := 0; block < 8; block++ {
			gen.NextBlock(words)
			e.SimulateChunk(words, detF, nil)
			naive.SimulateBlock(words, faults, detN)
			for i := range faults {
				if detF[i] != detN[i] {
					t.Fatalf("%s block %d fault %v: FFR %016x != naive %016x",
						c.Name, block, faults[i], detF[i], detN[i])
				}
			}
		}
	}
}

// TestEngineUncollapsedUniverse repeats the block identity on the full
// (uncollapsed) fault universe, which exercises every stem and branch
// position including equivalent and undetectable faults.
func TestEngineUncollapsedUniverse(t *testing.T) {
	for _, c := range engineTestCircuits()[:6] {
		faults := fault.Universe(c)
		plan := NewPlan(c, faults)
		e := NewEngine(plan)
		naive := New(c)
		gen := pattern.NewUniform(len(c.Inputs), 99)
		words := make([]uint64, len(c.Inputs))
		detF := make([]uint64, len(faults))
		detN := make([]uint64, len(faults))
		for block := 0; block < 4; block++ {
			gen.NextBlock(words)
			e.SimulateChunk(words, detF, nil)
			naive.SimulateBlock(words, faults, detN)
			for i := range faults {
				if detF[i] != detN[i] {
					t.Fatalf("%s block %d fault %v: FFR %016x != naive %016x",
						c.Name, block, faults[i], detF[i], detN[i])
				}
			}
		}
	}
}

// TestEngineMeasureDetectionIdentity compares whole measurements:
// detection counts and PSim between the engines, serial and parallel.
func TestEngineMeasureDetectionIdentity(t *testing.T) {
	for _, c := range engineTestCircuits() {
		faults := fault.Collapse(c)
		const n = 1000 // deliberately not a multiple of 64
		ref := measure(t, c, faults, pattern.NewUniform(len(c.Inputs), 3), n, Options{})
		naive, err := NewPlan(c, faults).MeasureDetectionCtx(context.Background(),
			pattern.NewUniform(len(c.Inputs), 3), n, Options{Engine: EngineNaive}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, -1} {
			par, err := NewPlan(c, faults).MeasureDetectionCtx(context.Background(),
				pattern.NewUniform(len(c.Inputs), 3), n, Options{Workers: workers}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range faults {
				if ref.Detected[i] != par.Detected[i] {
					t.Fatalf("%s workers=%d fault %v: serial %d != parallel %d",
						c.Name, workers, faults[i], ref.Detected[i], par.Detected[i])
				}
			}
		}
		for i := range faults {
			if ref.Detected[i] != naive.Detected[i] {
				t.Fatalf("%s fault %v: FFR detected %d != naive %d",
					c.Name, faults[i], ref.Detected[i], naive.Detected[i])
			}
			if ref.PSim(i) != naive.PSim(i) {
				t.Fatalf("%s fault %v: PSim mismatch", c.Name, faults[i])
			}
		}
	}
}

// TestEngineCoverageCurveIdentity compares coverage curves with fault
// dropping across engines, widths, worker counts and pattern sources,
// on checkpoints that are deliberately not multiples of 64, and on
// unsorted, duplicated ones.
func TestEngineCoverageCurveIdentity(t *testing.T) {
	cpSets := [][]int{{10, 100, 500, 777, 1500}, {777, 10, 1500, 100, 777, 10}}
	opts := []Options{{Engine: EngineNaive}, {Workers: -1}, {Width: 8, Workers: 2}}
	for _, c := range engineTestCircuits() {
		faults := fault.Collapse(c)
		probs := make([]float64, len(c.Inputs))
		for i := range probs {
			probs[i] = 0.25 + 0.5*float64(i%3)/2
		}
		gens := map[string]func(seed uint64) *pattern.Generator{
			"uniform": func(seed uint64) *pattern.Generator {
				return pattern.NewUniform(len(c.Inputs), seed)
			},
			"weighted": func(seed uint64) *pattern.Generator {
				g, err := pattern.NewWeighted(probs, seed)
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
		}
		for name, mk := range gens {
			for _, cps := range cpSets {
				ref := coverage(t, c, faults, mk(11), cps, Options{})
				for _, opt := range opts {
					got := coverage(t, c, faults, mk(11), cps, opt)
					if len(ref) != len(got) {
						t.Fatalf("%s/%s %+v: curve lengths differ", c.Name, name, opt)
					}
					for i := range ref {
						if ref[i] != got[i] {
							t.Fatalf("%s/%s %+v point %d: serial FFR %+v != %+v", c.Name, name, opt, i, ref[i], got[i])
						}
					}
				}
			}
		}
	}
}

// TestEngineExhaustiveIdentity checks the FFR engine against exhaustive
// enumeration (which internally runs the naive engine) on small
// circuits: exact per-fault detection counts over all 2^n patterns.
func TestEngineExhaustiveIdentity(t *testing.T) {
	small := []*circuit.Circuit{
		circuits.C17(),
		circuits.RippleAdder(3),
		circuits.Random(circuits.RandomOptions{Inputs: 8, Gates: 60, Outputs: 3, Seed: 5}),
	}
	for _, c := range small {
		faults := fault.Collapse(c)
		want, err := ExhaustiveDetection(c, faults)
		if err != nil {
			t.Fatal(err)
		}
		// Feed the engine the same enumeration layout.
		plan := NewPlan(c, faults)
		e := NewEngine(plan)
		got := make([]int, len(faults))
		det := make([]uint64, len(faults))
		words := make([]uint64, len(c.Inputs))
		total := 1 << len(c.Inputs)
		for base := 0; base < total; base += 64 {
			valid := min(64, total-base)
			for i := range words {
				words[i] = enumInputWord(uint64(base), i)
			}
			e.SimulateChunk(words, det, nil)
			mask := blockMask(valid)
			for i, d := range det {
				got[i] += popcount(d & mask)
			}
		}
		for i := range faults {
			if got[i] != want[i] {
				t.Fatalf("%s fault %v: FFR exhaustive count %d != oracle %d",
					c.Name, faults[i], got[i], want[i])
			}
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// TestEngineLiveGroups checks that skipping dropped FFR groups leaves
// the live groups' words untouched and exactly equal to a full block.
func TestEngineLiveGroups(t *testing.T) {
	c := circuits.Mult8()
	faults := fault.Collapse(c)
	plan := NewPlan(c, faults)
	e := NewEngine(plan)
	gen := pattern.NewUniform(len(c.Inputs), 21)
	words := make([]uint64, len(c.Inputs))
	gen.NextBlock(words)
	full := make([]uint64, len(faults))
	e.SimulateChunk(words, full, nil)
	live := make([]bool, plan.NumGroups())
	for si := 0; si < plan.NumGroups(); si += 2 {
		live[si] = true
	}
	partial := make([]uint64, len(faults))
	e.SimulateChunk(words, partial, live)
	for i := range faults {
		if !live[plan.GroupOf(i)] {
			continue
		}
		if partial[i] != full[i] {
			t.Fatalf("fault %v: live-group word %016x != full %016x", faults[i], partial[i], full[i])
		}
	}
}

// TestEngineCaptureOutputs checks capture mode against the naive
// oracle's capture: identical faulty output words and detection words
// for every fault.
func TestEngineCaptureOutputs(t *testing.T) {
	for _, c := range []*circuit.Circuit{circuits.C17(), circuits.ALU74181(),
		circuits.Random(circuits.RandomOptions{Inputs: 9, Gates: 70, Outputs: 4, Seed: 3})} {
		faults := fault.Collapse(c)
		plan := NewPlan(c, faults)
		e := NewEngine(plan)
		naive := plan.acquire(Options{Engine: EngineNaive})
		gen := pattern.NewUniform(len(c.Inputs), 5)
		words := make([]uint64, len(c.Inputs))
		det := make([]uint64, len(faults))
		detN := make([]uint64, len(faults))
		outF := make([]uint64, len(c.Outputs))
		outN := make([]uint64, len(c.Outputs))
		for block := 0; block < 4; block++ {
			gen.NextBlock(words)
			e.SimulateChunkOutputs(words, det)
			naive.SimulateChunkOutputs(words, detN)
			for fi, f := range faults {
				if det[fi] != detN[fi] {
					t.Fatalf("%s fault %v: capture det %016x != naive %016x", c.Name, f, det[fi], detN[fi])
				}
				e.FaultOutputs(fi, outF)
				naive.FaultOutputs(fi, outN)
				for oi := range outF {
					if outF[oi] != outN[oi] {
						t.Fatalf("%s fault %v output %d: capture %016x != naive %016x",
							c.Name, f, oi, outF[oi], outN[oi])
					}
				}
			}
		}
	}
}

// The naive oracle reads only the plan's circuit and fault list: a
// plan driven only by it never builds the FFR structure.
func TestNaivePathSkipsFFRStructure(t *testing.T) {
	c := circuits.ALU74181()
	plan := NewPlan(c, fault.Collapse(c))
	opt := Options{Engine: EngineNaive, Workers: 2}
	ctx := context.Background()
	if _, err := plan.MeasureDetectionCtx(ctx, pattern.NewUniform(len(c.Inputs), 1), 300, opt, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.CoverageCurveCtx(ctx, pattern.NewUniform(len(c.Inputs), 1), []int{10, 300}, opt, nil); err != nil {
		t.Fatal(err)
	}
	fold := func(WideEngine, []uint64, []BlockSpan) {}
	if err := plan.Capture(ctx, pattern.NewUniform(len(c.Inputs), 1), 300, opt, fold, nil); err != nil {
		t.Fatal(err)
	}
	if plan.part != nil {
		t.Fatal("naive runs built the plan's FFR structure")
	}
	plan.NumGroups()
	if plan.part == nil {
		t.Fatal("NumGroups did not build the FFR structure")
	}
}
