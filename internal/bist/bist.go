// Package bist models the self-test configuration of section 8 of the
// paper: a pattern source (uniform BILBO-style PRPG or a weighted
// generator standing in for the NLFSRs of [KuWu84]) drives the
// combinational circuit, and a multiple-input signature register (MISR)
// compacts the responses [HeLe83].  A fault is caught by the self test
// exactly when its faulty signature differs from the good one — the
// package measures real signature-based coverage including aliasing.
package bist

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"protest/internal/circuit"
	"protest/internal/fault"
	"protest/internal/faultsim"
	"protest/internal/pattern"
)

// MISR is a multiple-input signature register over GF(2) with a
// primitive feedback polynomial.
type MISR struct {
	width uint
	taps  uint64
	state uint64
}

// NewMISR creates a signature register.  Supported widths follow
// pattern.Taps (4, 8, 16, 24, 32).
func NewMISR(width uint, seed uint64) (*MISR, error) {
	taps, ok := pattern.Taps(width)
	if !ok {
		return nil, fmt.Errorf("bist: no primitive polynomial for MISR width %d", width)
	}
	return &MISR{width: width, taps: taps, state: seed & (1<<width - 1)}, nil
}

// Clock shifts the register once and XORs the input word into the
// parallel inputs (input bit i lands on stage i mod width).
func (m *MISR) Clock(inputs uint64) {
	fb := parity(m.state & m.taps)
	m.state = ((m.state >> 1) | (fb << (m.width - 1))) ^ fold(inputs, m.width)
}

// Signature returns the current register contents.
func (m *MISR) Signature() uint64 { return m.state }

// Reset restores a seed state.
func (m *MISR) Reset(seed uint64) { m.state = seed & (1<<m.width - 1) }

// AliasingBound returns the asymptotic aliasing probability 2^-width of
// a primitive-polynomial MISR.
func (m *MISR) AliasingBound() float64 { return math.Pow(2, -float64(m.width)) }

func fold(w uint64, width uint) uint64 {
	if width >= 64 {
		return w
	}
	var out uint64
	for w != 0 {
		out ^= w & (1<<width - 1)
		w >>= width
	}
	return out
}

func parity(x uint64) uint64 {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x & 1
}

// Plan describes one self-test session.
type Plan struct {
	// Cycles is the number of test patterns applied.
	Cycles int
	// MISRWidth selects the signature register width (default 16).
	MISRWidth uint
	// MISRSeed seeds the register (default 0).
	MISRSeed uint64
	// Engine selects the fault-simulation engine producing the faulty
	// responses (the zero value is the FFR engine; faultsim.EngineNaive
	// selects the per-fault oracle).  Through a Session the zero value
	// means "the Session's engine".  Signatures are bit-identical
	// either way.
	Engine faultsim.EngineKind
	// SimWidth is the FFR capture width in 64-cycle lanes (1, 4 or 8;
	// 0 means 1, or "the Session's width" through a Session).  Wide
	// capture simulates SimWidth consecutive blocks per sweep and
	// clocks the signature registers lane by lane in cycle order, so
	// signatures are bit-identical at every width.  The naive engine
	// ignores it.
	SimWidth int
}

// Result reports the outcome of a simulated self-test session.
type Result struct {
	GoodSignature uint64
	// MISRWidth is the signature register width actually used (the
	// plan's width after defaulting).
	MISRWidth uint
	// Detected counts faults whose signature differs from the good one.
	Detected int
	// OutputDetected counts faults that produced at least one erroneous
	// response bit (detectable before compaction).
	OutputDetected int
	// Aliased counts faults with erroneous responses whose signature
	// nevertheless collapsed onto the good one.
	Aliased int
	Faults  int
	Cycles  int
}

// Coverage returns the signature-based fault coverage.
func (r *Result) Coverage() float64 {
	if r.Faults == 0 {
		return 1
	}
	return float64(r.Detected) / float64(r.Faults)
}

// Program is the immutable self-test artifact of one fault-simulation
// plan.  It shares the plan (whose FFR structure only the FFR engine
// builds) and pools the per-run scratch — per-fault signature
// registers, response buffers — so any number of goroutines can run
// self-test sessions concurrently against one Program.  Every run is
// bit-identical to a serial run with the same generator stream and
// plan.
type Program struct {
	plan *faultsim.Plan
	pool sync.Pool // *runState
}

// runState is one run's mutable scratch, pooled on the Program.  The
// output buffers are sized for the widest chunk.
type runState struct {
	faultSigs      []uint64
	outputDetected []bool
	goodOut        []uint64
	faultyOut      []uint64
	laneOut        []uint64 // one lane of goodOut or faultyOut
}

// NewProgram builds the self-test artifact over a shared plan.
func NewProgram(plan *faultsim.Plan) *Program {
	p := &Program{plan: plan}
	nFaults, nOut := len(plan.Faults()), len(plan.Circuit().Outputs)
	p.pool.New = func() any {
		return &runState{
			faultSigs:      make([]uint64, nFaults),
			outputDetected: make([]bool, nFaults),
			goodOut:        make([]uint64, nOut*maxWidth),
			faultyOut:      make([]uint64, nOut*maxWidth),
			laneOut:        make([]uint64, nOut),
		}
	}
	return p
}

// maxWidth is the widest capture chunk, in 64-cycle lanes.
const maxWidth = 8

// Run simulates the complete self test on a private Program: every
// fault's response stream is compacted into its own signature and
// compared against the good one.  The generator supplies the stimulus
// (uniform for a classic BILBO, weighted for the optimized NLFSR
// scheme).
func Run(c *circuit.Circuit, faults []fault.Fault, gen *pattern.Generator, plan Plan) (*Result, error) {
	return NewProgram(faultsim.NewPlan(c, faults)).RunCtx(context.Background(), gen, plan, nil)
}

// RunCtx runs one self-test session on pooled scratch.  Between waves
// of 64-cycle blocks it checks ctx and, on cancellation, returns
// ctx.Err() and a nil result.  Safe for concurrent use: concurrent
// runs share only the immutable plan and the scratch pool.
func (p *Program) RunCtx(ctx context.Context, gen *pattern.Generator, plan Plan, progress faultsim.Progress) (*Result, error) {
	c, faults := p.plan.Circuit(), p.plan.Faults()
	if gen.NumInputs() != len(c.Inputs) {
		return nil, fmt.Errorf("bist: generator has %d inputs, circuit %d", gen.NumInputs(), len(c.Inputs))
	}
	if plan.Cycles <= 0 {
		plan.Cycles = 1024
	}
	if plan.MISRWidth == 0 {
		plan.MISRWidth = 16
	}
	goodMISR, err := NewMISR(plan.MISRWidth, plan.MISRSeed)
	if err != nil {
		return nil, err
	}
	st := p.pool.Get().(*runState)
	defer p.pool.Put(st)
	// Per-fault signature registers.
	faultSigs := st.faultSigs
	for i := range faultSigs {
		faultSigs[i] = plan.MISRSeed & (1<<plan.MISRWidth - 1)
	}
	outputDetected := st.outputDetected
	for i := range outputDetected {
		outputDetected[i] = false
	}

	scratch := &MISR{width: plan.MISRWidth}
	scratch.taps, _ = pattern.Taps(plan.MISRWidth)

	// Every chunk's good and faulty responses clock the signature
	// registers lane by lane in cycle order, so signatures are
	// bit-identical for every engine and width.  The FFR engine
	// composes each fault's faulty responses from per-stem output-flip
	// words; the naive oracle re-simulates every fault's cone.
	nOut := len(c.Outputs)
	opt := faultsim.Options{Engine: plan.Engine, Width: plan.SimWidth}
	err = p.plan.Capture(ctx, gen, plan.Cycles, opt, func(eng faultsim.WideEngine, det []uint64, blocks []faultsim.BlockSpan) {
		w := eng.Width()
		goodOut, faultyOut := st.goodOut[:nOut*w], st.faultyOut[:nOut*w]
		eng.GoodOutputWords(goodOut)
		for l, b := range blocks {
			clockStream(goodMISR, lane(st.laneOut, goodOut, w, l), bits.OnesCount64(b.Mask))
		}
		for fi := range faults {
			eng.FaultOutputs(fi, faultyOut)
			scratch.state = faultSigs[fi]
			for l, b := range blocks {
				if det[fi*w+l]&b.Mask != 0 {
					outputDetected[fi] = true
				}
				clockStream(scratch, lane(st.laneOut, faultyOut, w, l), bits.OnesCount64(b.Mask))
			}
			faultSigs[fi] = scratch.state
		}
	}, progress)
	if err != nil {
		return nil, err
	}

	res := &Result{
		GoodSignature: goodMISR.Signature(),
		MISRWidth:     plan.MISRWidth,
		Faults:        len(faults),
		Cycles:        plan.Cycles,
	}
	for fi := range faults {
		if faultSigs[fi] != res.GoodSignature {
			res.Detected++
		} else if outputDetected[fi] {
			res.Aliased++
		}
	}
	res.OutputDetected = res.Detected + res.Aliased
	return res, nil
}

// lane returns lane l of a lane-major output buffer (out[i*w+l] is
// output i's word), gathered into dst unless the buffer has one lane.
func lane(dst, out []uint64, w, l int) []uint64 {
	if w == 1 {
		return out
	}
	for i := range dst {
		dst[i] = out[i*w+l]
	}
	return dst
}

// clockStream feeds `valid` cycles of output words into the MISR:
// cycle b contributes output bit words' bit b, assembled into one
// parallel input word (output i on MISR input i).
func clockStream(m *MISR, outWords []uint64, valid int) {
	for b := 0; b < valid; b++ {
		var in uint64
		for i, w := range outWords {
			in |= (w >> b & 1) << (uint(i) % 64)
		}
		m.Clock(in)
	}
}
