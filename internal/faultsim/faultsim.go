// Package faultsim implements the bit-parallel fault simulation the
// paper validates PROTEST against — P_SIM (section 4, Table 1) and
// fault-coverage-versus-pattern-count curves with fault dropping
// (section 6, Table 6) — and the capture runs behind self-test
// signatures.
//
// Every measurement runs through one driver with four parameters:
//
//   - the engine (Options.Engine): the FFR engine (Plan/Engine), the
//     default, partitions the collapsed fault list by fanout-free
//     region; each block runs one good simulation, one backward
//     critical-path trace per live region and one dominator-bounded
//     stem propagation per live stem, collapsing per-fault work to a
//     few word operations.  The naive engine (Simulator), kept as the
//     independent oracle, re-simulates every fault individually inside
//     its output cone and drops faults one by one;
//   - the width (Options.Width): the FFR engine simulates W ∈ {1, 4, 8}
//     consecutive 64-pattern blocks per sweep, W=1 on the narrow
//     kernel (Engine) and wider on the generic wide kernel.  The naive
//     engine runs W=1 only and ignores Width;
//   - the workers (Options.Workers): waves of up to that many chunks
//     simulate concurrently, each on its own engine;
//   - the fold: detection counts, first-detection positions with fault
//     dropping (coverage curves and curve shards), or response capture
//     (self test).
//
// Chunks are drawn from the pattern generator in block order and
// folded in block order, so every engine, width and worker count
// yields bit-identical results; the engine property tests enforce it.
// One caveat holds for every engine: a fault-dropping run that detects
// its last fault stops after that wave, which has already drawn its
// remaining blocks, so the caller's generator may sit up to
// workers×W−1 blocks further along than after a one-block-at-a-time
// run.  The curve is unaffected.
package faultsim

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"protest/internal/bitsim"
	"protest/internal/circuit"
	"protest/internal/fault"
	"protest/internal/logic"
	"protest/internal/pattern"
)

// Progress receives (patterns applied, patterns requested) after each
// simulated block.  Nil callbacks are allowed everywhere one is taken.
// When fault dropping exhausts the fault list before the last
// checkpoint, the remaining blocks are skipped and one final
// progress(total, total) call is reported.
type Progress func(done, total int)

// EngineKind selects the fault-simulation engine.
type EngineKind int

const (
	// EngineFFR is the FFR-partitioned engine (default): critical path
	// tracing inside fanout-free regions plus dominator-cut stem
	// propagation.
	EngineFFR EngineKind = iota
	// EngineNaive re-simulates every fault's cone individually.  It is
	// the slower, structurally independent oracle the FFR engine is
	// validated against.
	EngineNaive
)

func (k EngineKind) String() string {
	switch k {
	case EngineFFR:
		return "ffr"
	case EngineNaive:
		return "naive"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// ParseEngine parses "ffr" or "naive".
func ParseEngine(s string) (EngineKind, error) {
	switch s {
	case "", "ffr":
		return EngineFFR, nil
	case "naive":
		return EngineNaive, nil
	}
	return 0, fmt.Errorf("faultsim: unknown engine %q (want ffr or naive)", s)
}

// Options tunes a measurement run.  The zero value selects the FFR
// engine, serial, narrow (width 1).
type Options struct {
	// Engine selects the simulation engine.
	Engine EngineKind
	// Workers spreads the chunks of a run over goroutines; <= 1 is
	// serial, < 0 selects GOMAXPROCS.  Values above GOMAXPROCS are
	// clamped to it — oversubscribing cores only adds scheduling
	// overhead (the bench trail shows the optimizer *slowing* when
	// oversubscribed on one CPU), and the chunk distribution is
	// identical either way.  Results are identical for every worker
	// count.
	Workers int
	// Width is the simulation width in 64-pattern lanes (1, 4 or 8;
	// 0 means 1): the FFR engine simulates Width consecutive blocks
	// per sweep with all propagation words widened to Width lanes.
	// Results are bit-identical at every width.  The naive oracle
	// engine has no wide path and ignores Width.
	Width int
}

// Simulator is the naive fault simulator: one cone re-simulation per
// fault per block.
type Simulator struct {
	c      *circuit.Circuit
	good   *bitsim.Simulator
	fvals  []uint64 // faulty values, one word per node
	dirty  []circuit.NodeID
	inCone []bool // scratch: nodes needing re-evaluation
	inbuf  [][]uint64
	// captureOut, when non-nil, receives the faulty output words of the
	// next propagate call.
	captureOut []uint64
}

// New creates a naive fault simulator.
func New(c *circuit.Circuit) *Simulator {
	return &Simulator{
		c:      c,
		good:   bitsim.New(c),
		fvals:  make([]uint64, c.NumNodes()),
		inCone: make([]bool, c.NumNodes()),
		inbuf:  make([][]uint64, 0, 8),
	}
}

// Circuit returns the simulated circuit.
func (s *Simulator) Circuit() *circuit.Circuit { return s.c }

// SimulateBlock runs one block of 64 patterns (given as one word per
// primary input) against the good circuit and every fault in faults,
// and returns for each fault the word of patterns that detect it
// (bit b set = pattern b detects the fault at some primary output).
func (s *Simulator) SimulateBlock(inputWords []uint64, faults []fault.Fault, detect []uint64) {
	goodVals := s.runGood(inputWords)
	for fi, f := range faults {
		detect[fi] = s.simulateFault(goodVals, f)
	}
}

// runGood simulates the good circuit and returns its node values.
func (s *Simulator) runGood(inputWords []uint64) []uint64 {
	if err := s.good.SetInputs(inputWords); err != nil {
		panic(err) // callers size the block from the circuit
	}
	s.good.Run()
	return s.good.Values()
}

// simulateFault re-simulates the cone of one fault against the good
// values and returns the detecting pattern word.
func (s *Simulator) simulateFault(goodVals []uint64, f fault.Fault) uint64 {
	site := f.Site(s.c)
	var stuck uint64
	if f.StuckAt {
		stuck = ^uint64(0)
	}
	// Activation: patterns where the fault changes the site value,
	// intersected with the kind's condition word (every kind is a
	// conditional stuck-at; see Engine.faultWord for the conditions).
	act := goodVals[site] ^ stuck
	switch f.Kind {
	case fault.KindBridgeAND, fault.KindBridgeOR:
		act &^= goodVals[f.Aggressor] ^ stuck
	case fault.KindSlowRise, fault.KindSlowFall:
		act &^= (goodVals[site] << 1) ^ stuck
		act &^= 1
	}
	if act == 0 {
		return 0
	}
	// The faulty site value: the capture value on activated patterns,
	// the fault-free value elsewhere.  For plain stuck-at faults this is
	// the stuck word itself.
	fval := goodVals[site] ^ act
	if f.IsStem() {
		return s.propagate(goodVals, site, fval, fault.StemPin, 0)
	}
	return s.propagate(goodVals, site, fval, int(f.Gate), f.Pin)
}

// propagate re-evaluates the fanout cone.  For a stem fault the value of
// `site` itself is forced to fval; for a branch fault only gate
// `branchGate`'s pin `branchPin` sees the faulty value.
func (s *Simulator) propagate(goodVals []uint64, site circuit.NodeID, fval uint64, branchGate, branchPin int) uint64 {
	c := s.c
	// Collect the cone in topological order.  Node IDs are topological,
	// so a simple forward sweep from the first affected node works.
	var first circuit.NodeID
	stemFault := branchGate == fault.StemPin
	if stemFault {
		first = site
		s.fvals[site] = fval
		s.inCone[site] = true
	} else {
		first = circuit.NodeID(branchGate)
	}
	dirty := s.dirty[:0]
	var detected uint64
	if stemFault {
		dirty = append(dirty, site)
		if c.Node(site).IsOutput {
			detected |= fval ^ goodVals[site]
		}
	}
	n := circuit.NodeID(c.NumNodes())
	for id := first; id < n; id++ {
		node := &c.Nodes[id]
		if node.IsInput {
			continue
		}
		needs := false
		if !stemFault && id == circuit.NodeID(branchGate) {
			needs = true
		} else {
			for _, fin := range node.Fanin {
				if s.inCone[fin] && s.fvals[fin] != goodVals[fin] {
					needs = true
					break
				}
			}
		}
		if !needs {
			continue
		}
		v := s.evalFaulty(goodVals, id, fval, branchGate, branchPin)
		if v == goodVals[id] {
			continue // fault effect absorbed here
		}
		if !s.inCone[id] {
			s.inCone[id] = true
			dirty = append(dirty, id)
		}
		s.fvals[id] = v
		if node.IsOutput {
			detected |= v ^ goodVals[id]
		}
	}
	if s.captureOut != nil {
		for i, out := range c.Outputs {
			if s.inCone[out] {
				s.captureOut[i] = s.fvals[out]
			} else {
				s.captureOut[i] = goodVals[out]
			}
		}
	}
	// Reset scratch state.
	for _, id := range dirty {
		s.inCone[id] = false
	}
	s.dirty = dirty[:0]
	return detected
}

func (s *Simulator) evalFaulty(goodVals []uint64, id circuit.NodeID, fval uint64, branchGate, branchPin int) uint64 {
	node := &s.c.Nodes[id]
	val := func(pin int, fin circuit.NodeID) uint64 {
		if int(id) == branchGate && pin == branchPin {
			return fval
		}
		if s.inCone[fin] {
			return s.fvals[fin]
		}
		return goodVals[fin]
	}
	switch len(node.Fanin) {
	case 1:
		v := val(0, node.Fanin[0])
		switch node.Op {
		case logic.Buf, logic.And, logic.Or, logic.Xor:
			return v
		case logic.Not, logic.Nand, logic.Nor, logic.Xnor:
			return ^v
		}
	case 2:
		a := val(0, node.Fanin[0])
		b := val(1, node.Fanin[1])
		switch node.Op {
		case logic.And:
			return a & b
		case logic.Nand:
			return ^(a & b)
		case logic.Or:
			return a | b
		case logic.Nor:
			return ^(a | b)
		case logic.Xor:
			return a ^ b
		case logic.Xnor:
			return ^(a ^ b)
		}
	}
	for len(s.inbuf) <= len(node.Fanin) {
		s.inbuf = append(s.inbuf, make([]uint64, len(s.inbuf)))
	}
	buf := s.inbuf[len(node.Fanin)]
	for i, fin := range node.Fanin {
		buf[i] = val(i, fin)
	}
	if node.Op == logic.TableOp {
		return node.Table.EvalWord(buf)
	}
	return logic.EvalWord(node.Op, buf)
}

// Result of a detection-probability measurement.
type Result struct {
	Faults   []fault.Fault
	Detected []int // #patterns detecting each fault
	Applied  int   // total patterns applied
}

// PSim returns the measured detection probability of fault i, per
// detection opportunity (see Trials).
func (r *Result) PSim(i int) float64 {
	return float64(r.Detected[i]) / float64(r.Trials(i))
}

// Trials returns the number of detection opportunities fault i had:
// Applied patterns for combinational kinds, and Applied minus one
// launch-less slot per 64-pattern block for transition faults (bit 0
// of every block has no launch pattern).
func (r *Result) Trials(i int) int {
	if r.Faults[i].Kind.IsTransition() {
		return TransitionOpportunities(r.Applied)
	}
	return r.Applied
}

// TransitionOpportunities returns the number of launch/capture pairs
// among n patterns applied as 64-pattern blocks: n - ceil(n/64).
func TransitionOpportunities(n int) int {
	return n - (n+63)/64
}

// Coverage returns the fraction of faults detected at least once.
func (r *Result) Coverage() float64 {
	det := 0
	for _, d := range r.Detected {
		if d > 0 {
			det++
		}
	}
	return float64(det) / float64(len(r.Faults))
}

// blockMask returns the valid-pattern mask of a block: all ones except
// when fewer than 64 patterns of the block count.
func blockMask(valid int) uint64 {
	if valid < 64 {
		return (uint64(1) << valid) - 1
	}
	return ^uint64(0)
}

// MeasureDetectionCtx applies numPatterns patterns from gen and
// counts, for every fault, how many patterns detect it — the
// experiment behind P_SIM in section 4 of the paper.  No fault
// dropping is performed.  Between waves of chunks it checks ctx and, on
// cancellation, returns ctx.Err() and a nil result.
func (p *Plan) MeasureDetectionCtx(ctx context.Context, gen *pattern.Generator, numPatterns int, opt Options, progress Progress) (*Result, error) {
	sched := DetectSchedule(numPatterns)
	counts, err := p.countDetections(ctx, gen, sched, 0, sched.Len(), opt, p.allFaults(), nil, progress)
	if err != nil {
		return nil, err
	}
	return &Result{Faults: p.faults, Detected: counts, Applied: numPatterns}, nil
}

// CoveragePoint is one row of a coverage curve.
type CoveragePoint struct {
	Patterns int
	Coverage float64 // percent of faults detected so far
}

// CoverageCurveCtx fault-simulates with fault dropping and records the
// cumulative fault coverage at each checkpoint — the experiment behind
// Table 6.  The FFR engine drops whole FFR groups: once every fault of
// a region is detected the region is never traced again.
func (p *Plan) CoverageCurveCtx(ctx context.Context, gen *pattern.Generator, checkpoints []int, opt Options, progress Progress) ([]CoveragePoint, error) {
	sched := CurveSchedule(checkpoints)
	first, err := p.firstDetections(ctx, gen, sched, 0, sched.Len(), opt, p.allFaults(), progress)
	if err != nil {
		return nil, err
	}
	return Curve(checkpoints, first), nil
}

// Curve returns the coverage curve of a fault list from each fault's
// first-detection position (-1: never detected): a fault counts as
// covered at checkpoint cp iff its first detection lies at or before
// cp.  Points are reported in ascending checkpoint order, one per
// requested checkpoint.
func Curve(checkpoints, first []int) []CoveragePoint {
	cps := append([]int(nil), checkpoints...)
	sort.Ints(cps)
	var out []CoveragePoint
	for _, cp := range cps {
		dead := 0
		for _, f := range first {
			if f >= 0 && f <= cp {
				dead++
			}
		}
		out = append(out, CoveragePoint{Patterns: cp, Coverage: 100 * float64(dead) / float64(len(first))})
	}
	return out
}

// Capture runs a self-test capture over the first `cycles` patterns
// drawn from gen: every chunk is simulated in capture mode by opt's
// engine and handed to fold in block order, with the engine holding
// the chunk's good (GoodOutputWords) and faulty (FaultOutputs) output
// words, det[fi*W+l] the detection words and blocks the chunk's
// blocks.  The plan's FFR structure is built only for the FFR engine.
func (p *Plan) Capture(ctx context.Context, gen *pattern.Generator, cycles int, opt Options, fold func(eng WideEngine, det []uint64, blocks []BlockSpan), progress Progress) error {
	sched := DetectSchedule(cycles)
	return p.sweep(ctx, gen, sched, 0, sched.Len(), opt, true, nil, func(eng WideEngine, det []uint64, blocks []BlockSpan) bool {
		fold(eng, det, blocks)
		return false
	}, progress)
}

// ExhaustiveDetection enumerates all 2^n input patterns (n <= 20) and
// returns the exact number of patterns detecting each fault.  Used as a
// ground-truth oracle in tests.
func ExhaustiveDetection(c *circuit.Circuit, faults []fault.Fault) ([]int, error) {
	if len(c.Inputs) > 20 {
		return nil, errTooManyInputs(len(c.Inputs))
	}
	s := New(c)
	counts := make([]int, len(faults))
	det := make([]uint64, len(faults))
	words := make([]uint64, len(c.Inputs))
	gsim := bitsim.New(c)
	err := gsim.EnumerateExhaustive(func(base uint64, valid int) {
		for i := range words {
			words[i] = enumInputWord(base, i)
		}
		mask := blockMask(valid)
		s.SimulateBlock(words, faults, det)
		for i, d := range det {
			counts[i] += bits.OnesCount64(d & mask)
		}
	})
	if err != nil {
		return nil, err
	}
	return counts, nil
}

type errTooManyInputs int

func (e errTooManyInputs) Error() string {
	return fmt.Sprintf("faultsim: exhaustive detection limited to 20 inputs, circuit has %d", int(e))
}

// enumInputWord mirrors bitsim's exhaustive enumeration pattern layout.
func enumInputWord(base uint64, i int) uint64 {
	masks := [6]uint64{
		0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
	}
	if i < 6 {
		return masks[i]
	}
	if base>>uint(i)&1 == 1 {
		return ^uint64(0)
	}
	return 0
}
