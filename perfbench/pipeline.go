package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"

	"protest"
)

// pipelineCircuits are the mid-size registry circuits the pipeline
// workload rotates through; the class splits them at about 200 ms.
var pipelineCircuits = []struct{ name, class string }{
	{"alu", "light"},
	{"c432", "light"},
	{"c499", "heavy"},
	{"cla16", "heavy"},
}

// pipelineBIST is the small fixed self-test plan of every pipeline op.
var pipelineBIST = protest.BISTPlan{Cycles: 512}

// pipelineWL runs the paper's whole flow, Session.Run with the
// optimize phase and a BIST session, on one Session per circuit.
type pipelineWL struct {
	seed  uint64
	book  *digestBook
	sess  map[string]*protest.Session
	want  map[string]*protest.Report // warm-pass reports, the replay's reference
	order []int                      // the seeded op sequence of every round
}

func newPipeline(seed uint64, book *digestBook) *pipelineWL {
	return &pipelineWL{seed: seed, book: book, sess: map[string]*protest.Session{}, want: map[string]*protest.Report{}}
}

func (w *pipelineWL) spec() protest.PipelineSpec {
	plan := pipelineBIST
	return protest.PipelineSpec{Optimize: true, BIST: &plan}
}

func (w *pipelineWL) setup(ctx context.Context) error {
	rng := rand.New(rand.NewPCG(w.seed, 0x70697065))
	w.order = rng.Perm(len(pipelineCircuits))
	for _, i := range w.order {
		name := pipelineCircuits[i].name
		c, ok := protest.Benchmark(name)
		if !ok {
			return fmt.Errorf("unknown circuit %q", name)
		}
		s, err := protest.Open(c, protest.WithWorkers(-1), protest.WithSeed(w.seed))
		if err != nil {
			return err
		}
		w.sess[name] = s
		rep, err := s.Run(ctx, w.spec())
		if err != nil {
			return fmt.Errorf("warm %s: %w", name, err)
		}
		d, err := digestJSON(rep)
		if err != nil {
			return err
		}
		w.book.record("pipeline/"+name, d)
		w.want[name] = rep
	}
	return nil
}

func (w *pipelineWL) round(traced bool) []step {
	steps := make([]step, 0, len(w.order))
	for _, i := range w.order {
		name, s := pipelineCircuits[i].name, w.sess[pipelineCircuits[i].name]
		do := func(ctx context.Context) error {
			rep, err := s.Run(ctx, w.spec())
			if err != nil {
				return err
			}
			d, err := digestJSON(rep)
			if err != nil {
				return err
			}
			return w.book.same("pipeline/"+name, d)
		}
		if traced {
			do = func(ctx context.Context) error { return w.replay(ctx, name) }
		}
		steps = append(steps, step{{kind: name, class: pipelineCircuits[i].class, do: do}})
	}
	return steps
}

// replay performs one pipeline op as the public calls Session.Run
// makes, each in its own span, and checks that they reproduce the
// warm-pass Report.
func (w *pipelineWL) replay(ctx context.Context, name string) error {
	s, want := w.sess[name], w.want[name]
	spec := w.spec()
	uniform, err := replayPlan(ctx, s, nil)
	if err != nil {
		return err
	}
	var opt *protest.OptimizeResult
	if err := timed(ctx, "optimize.climb", func() (int64, error) {
		var err error
		opt, err = s.Optimize(ctx, protest.OptimizeOptions{})
		if err != nil {
			return 0, err
		}
		return int64(opt.Evaluations), nil
	}); err != nil {
		return err
	}
	var weights []float64
	_ = timed(ctx, "pattern.quantize", func() (int64, error) {
		weights = protest.QuantizeProbs(opt.Probs, 16)
		return 0, nil
	})
	optimized, err := replayPlan(ctx, s, weights)
	if err != nil {
		return err
	}
	var bist *protest.BISTResult
	if err := timed(ctx, "bist", func() (int64, error) {
		var err error
		bist, err = s.RunBISTWeighted(ctx, weights, *spec.BIST)
		return int64(pipelineBIST.Cycles), err
	}); err != nil {
		return err
	}
	got := &protest.Report{
		Circuit: want.Circuit, Gates: want.Gates, Inputs: want.Inputs, Outputs: want.Outputs,
		Faults: len(s.Faults()), Fraction: 1, Confidence: 0.95,
		Uniform: uniform, Optimized: optimized,
		BIST: &protest.BISTReport{
			Cycles: bist.Cycles, MISRWidth: bist.MISRWidth, GoodSignature: bist.GoodSignature,
			Detected: bist.Detected, Aliased: bist.Aliased, Coverage: bist.Coverage(),
		},
	}
	d, err := digestJSON(got)
	if err != nil {
		return err
	}
	if want := w.book.get("pipeline/" + name); d != want {
		return fmt.Errorf("pipeline/%s: traced replay digest %.12s differs from Session.Run %.12s", name, d, want)
	}
	return nil
}

// replayPlan rebuilds one PlanReport of Session.Run from public calls:
// analysis, test length, and validation by fault simulation under the
// same pattern budget rule (the test length, capped at 4096).
func replayPlan(ctx context.Context, s *protest.Session, probs []float64) (*protest.PlanReport, error) {
	faults := s.Faults()
	var detect []float64
	if err := timed(ctx, "core.analyze", func() (int64, error) {
		a, err := s.Analyze(ctx, probs)
		if err != nil {
			return 0, err
		}
		detect = a.DetectProbs(faults)
		return 0, nil
	}); err != nil {
		return nil, err
	}
	plan := &protest.PlanReport{InputProbs: probs}
	hardest := 0
	for i, p := range detect {
		if p < detect[hardest] {
			hardest = i
		}
	}
	plan.HardestFault, plan.HardestProb = faults[hardest].Name(s.Circuit()), detect[hardest]
	_ = timed(ctx, "testlen", func() (int64, error) {
		var n int64
		var err error
		if probs == nil {
			n, err = s.TestLength(1, 0.95)
		} else {
			n, err = protest.RequiredPatternsFraction(detect, 1, 0.95)
		}
		if err != nil {
			plan.TestLength, plan.Unreachable = -1, err.Error()
		} else {
			plan.TestLength = n
		}
		return 0, nil
	})
	budget := 4096
	if plan.TestLength > 0 && plan.TestLength < int64(budget) {
		budget = int(plan.TestLength)
	}
	plan.ExpectedCoverage = protest.ExpectedCoverage(detect, int64(budget))
	sim, err := simulate(ctx, s, probs, budget, detect, 1)
	if err != nil {
		return nil, err
	}
	plan.Simulated = sim
	return plan, nil
}

// simulate runs Session.SimulateWeighted in a span named after the
// Session's fault model and its simulation width, and summarizes the
// result as Run does.
func simulate(ctx context.Context, s *protest.Session, probs []float64, patterns int, detect []float64, width int) (*protest.SimReport, error) {
	var sim *protest.SimResult
	name := fmt.Sprintf("faultsim.sim/%s/w%d", s.FaultModel(), width)
	if err := timed(ctx, name, func() (int64, error) {
		var err error
		sim, err = s.SimulateWeighted(ctx, probs, patterns)
		if err != nil {
			return 0, err
		}
		return int64(sim.Applied), nil
	}); err != nil {
		return nil, err
	}
	if len(detect) != len(sim.Detected) {
		return nil, errors.New("simulation fault count differs from the analysis")
	}
	psim := make([]float64, len(detect))
	for i := range psim {
		psim[i] = sim.PSim(i)
	}
	return &protest.SimReport{Patterns: sim.Applied, Coverage: sim.Coverage(), Summary: protest.Summarize(detect, psim)}, nil
}
