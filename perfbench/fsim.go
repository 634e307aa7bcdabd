package main

import (
	"context"
	"fmt"
	"math/rand/v2"

	"protest"
)

// fsimCircuits are the fault-simulation circuits with their fixed
// pattern budgets.  div's hard faults keep the live fault set large
// for the whole run; on c880 and c1355 fault dropping empties it early.
var fsimCircuits = []struct {
	name     string
	patterns int
}{
	{"div", 1024},
	{"mult", 8192},
	{"c1355", 16384},
	{"c880", 65536},
}

// fsimWidths are the simulation widths of every fsim op: the class of
// a width-8 op is light, of a width-1 op heavy.
var fsimWidths = []int{1, 8}

type fsimOp struct {
	circuit  string
	patterns int
	model    protest.FaultModel
	width    int
}

func (o fsimOp) key() string { return fmt.Sprintf("fsim/%s/%s/w%d", o.circuit, o.model, o.width) }

func (o fsimOp) spec() protest.PipelineSpec {
	return protest.PipelineSpec{SimPatterns: o.patterns, FaultModel: o.model, SimWidth: o.width}
}

// fsimWL validates fixed large pattern budgets by fault simulation,
// Session.Run without the optimize phase, over circuits × fault models
// × widths.
type fsimWL struct {
	seed   uint64
	traced bool
	book   *digestBook
	sess   map[string]*protest.Session
	// replay holds, in traced runs, one Session per op opened with the
	// op's fault model and width, since SimulateWeighted takes both
	// from the Session.
	replay map[string]*protest.Session
	want   map[string]*protest.Report
	ops    []fsimOp // the seeded op sequence of every round
}

func newFsim(seed uint64, traced bool, book *digestBook) *fsimWL {
	return &fsimWL{seed: seed, traced: traced, book: book,
		sess: map[string]*protest.Session{}, replay: map[string]*protest.Session{}, want: map[string]*protest.Report{}}
}

func (w *fsimWL) setup(ctx context.Context) error {
	for _, fc := range fsimCircuits {
		c, ok := protest.Benchmark(fc.name)
		if !ok {
			return fmt.Errorf("unknown circuit %q", fc.name)
		}
		s, err := protest.Open(c, protest.WithWorkers(-1), protest.WithSeed(w.seed))
		if err != nil {
			return err
		}
		w.sess[fc.name] = s
		for _, m := range protest.FaultModels() {
			for _, width := range fsimWidths {
				w.ops = append(w.ops, fsimOp{fc.name, fc.patterns, m, width})
			}
		}
	}
	rng := rand.New(rand.NewPCG(w.seed, 0x6673696d))
	rng.Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
	for _, op := range w.ops {
		rep, err := w.sess[op.circuit].Run(ctx, op.spec())
		if err != nil {
			return fmt.Errorf("warm %s: %w", op.key(), err)
		}
		d, err := digestJSON(rep)
		if err != nil {
			return err
		}
		w.book.record(op.key(), d)
		w.want[op.key()] = rep
		if w.traced {
			if err := w.openReplay(ctx, op); err != nil {
				return err
			}
		}
	}
	// Every width must produce the bit-identical report.
	for _, op := range w.ops {
		if op.width == 1 {
			continue
		}
		narrow := op
		narrow.width = 1
		if w.book.get(op.key()) != w.book.get(narrow.key()) {
			w.book.failWarm(fmt.Errorf("%s: report differs from %s", op.key(), narrow.key()))
		}
	}
	return nil
}

// openReplay opens and warms the Session the traced run replays op on.
func (w *fsimWL) openReplay(ctx context.Context, op fsimOp) error {
	s, err := protest.Open(w.sess[op.circuit].Circuit(), protest.WithWorkers(-1), protest.WithSeed(w.seed),
		protest.WithFaultModel(op.model), protest.WithSimWidth(op.width))
	if err != nil {
		return err
	}
	w.replay[op.key()] = s
	return w.replayOp(ctx, op)
}

func (w *fsimWL) round(traced bool) []step {
	steps := make([]step, 0, len(w.ops))
	for _, op := range w.ops {
		class := "heavy"
		if op.width > 1 {
			class = "light"
		}
		do := func(ctx context.Context) error {
			rep, err := w.sess[op.circuit].Run(ctx, op.spec())
			if err != nil {
				return err
			}
			d, err := digestJSON(rep)
			if err != nil {
				return err
			}
			return w.book.same(op.key(), d)
		}
		if traced {
			do = func(ctx context.Context) error { return w.replayOp(ctx, op) }
		}
		steps = append(steps, step{{kind: op.key(), class: class, do: do}})
	}
	return steps
}

// replayOp performs op as its analysis call and its simulation call,
// each in its own span, and checks the simulation against the op's
// Session.Run report.
func (w *fsimWL) replayOp(ctx context.Context, op fsimOp) error {
	s := w.replay[op.key()]
	var detect []float64
	if err := timed(ctx, "core.analyze", func() (int64, error) {
		a, err := s.Analyze(ctx, nil)
		if err != nil {
			return 0, err
		}
		detect = a.DetectProbs(s.Faults())
		return 0, nil
	}); err != nil {
		return err
	}
	sim, err := simulate(ctx, s, nil, op.patterns, detect, op.width)
	if err != nil {
		return err
	}
	got, err := digestJSON(sim)
	if err != nil {
		return err
	}
	if want, _ := digestJSON(w.want[op.key()].Uniform.Simulated); got != want {
		return fmt.Errorf("%s: traced simulation differs from Session.Run", op.key())
	}
	return nil
}
