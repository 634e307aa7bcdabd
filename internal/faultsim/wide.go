package faultsim

import (
	"fmt"

	"protest/internal/circuit"
	"protest/internal/fault"
	"protest/internal/logic"
	"protest/internal/widesim"
)

// WideEngine is the width-erased facade over the generic wide FFR
// engine: one instance simulates chunks of W consecutive 64-pattern
// blocks with all engine words widened to W lanes.  All flat slices use
// the lane-major layout of pattern.Generator.NextBlocks —
// inputWords[i*W+l], det[fi*W+l], output words out[i*W+l] — where lane
// l is pattern block l of the chunk.
//
// A chunk always carries W lanes; callers packing fewer than W blocks
// zero-fill the spare lanes (NextBlocks does) and mask the
// corresponding det lanes out, exactly as the narrow path masks the
// ragged final block.  Results are bit-identical to W narrow
// (W=1) calls, lane for lane.  The narrow *Engine is the W=1
// implementation the measurement driver uses; the generic engine
// serves W ∈ {1, 4, 8}.
type WideEngine interface {
	// Width returns W, the number of 64-pattern lanes per chunk.
	Width() int
	// SimulateChunk fills det[fi*W+l] with the detecting-pattern word
	// of fault fi in lane l.  Groups dropped via
	// liveGroups are skipped, leaving their det lanes untouched.
	SimulateChunk(inputWords []uint64, det []uint64, liveGroups []bool)
	// SimulateChunkOutputs is SimulateChunk in capture mode (BIST
	// response compaction): every faulty stem propagates through its
	// full cone, so FaultOutputs can compose faulty responses.
	SimulateChunkOutputs(inputWords []uint64, det []uint64)
	// FaultOutputs composes fault fi's faulty output words of the last
	// capture chunk into out (numOutputs×W, lane-major).
	FaultOutputs(fi int, out []uint64)
	// GoodOutputWords copies the good output words of the last capture
	// chunk into dst (numOutputs×W, lane-major).
	GoodOutputWords(dst []uint64)
	// Release returns the engine to its plan's pool.
	Release()
}

// widthSlot maps a supported width to its pool index.
func widthSlot(width int) int {
	switch width {
	case 1:
		return 0
	case 4:
		return 1
	case 8:
		return 2
	}
	panic(fmt.Sprintf("faultsim: unsupported simulation width %d", width))
}

// wideProgram compiles (once) the levelized program shared by every
// wide engine of this plan.
func (p *Plan) wideProgram() *widesim.Program {
	p.build()
	p.wideOnce.Do(func() {
		p.wideProg = widesim.Compile(p.c)
		p.widePools[0].New = func() any { return newWideEngine[widesim.B1](p) }
		p.widePools[1].New = func() any { return newWideEngine[widesim.B4](p) }
		p.widePools[2].New = func() any { return newWideEngine[widesim.B8](p) }
	})
	return p.wideProg
}

// AcquireWideEngine returns a pooled wide engine of the given width
// (1, 4 or 8).  The caller owns it until Release; wide engines must
// not be shared between goroutines.
func (p *Plan) AcquireWideEngine(width int) WideEngine {
	p.wideProgram()
	return p.widePools[widthSlot(width)].Get().(WideEngine)
}

// wideEngine is the W-lane generalization of Engine: the same
// block-level algorithm (good sim → critical-path trace → dominator-
// bounded stem propagation → per-fault intersection) with every pattern
// word widened to a B lane vector.  The win is architectural, not
// SIMD: propagation bookkeeping (changed flags, frontier lists,
// early-exit checks, fault-word indexing) runs once per chunk instead
// of once per block, amortizing over W×64 patterns, and the one-pass
// good simulation runs the compiled levelized program.
type wideEngine[B widesim.Block[B]] struct {
	plan *Plan
	good *widesim.Sim[B]

	sens    []B    // per node: path sensitization to its FFR stem
	obs     []B    // per stem index: stem observability
	need    []bool // per stem index: required this chunk
	fvals   []B    // faulty values of the current stem propagation
	changed []bool // nodes deviating in the current stem propagation
	dirty   []circuit.NodeID
	pinbuf  []B      // per-pin sensitization scratch
	prebuf  []B      // prefix scratch for n-ary pin sensitization
	lanebuf []uint64 // per-lane gather scratch for table gates
	evalbuf []B      // gate-input gather scratch

	// Capture (BIST) state, allocated on first SimulateChunkOutputs.
	local   []B   // per fault: detect-at-stem vector of the last capture chunk
	poDiff  [][]B // per stem index: per-output flip vectors
	stemDet []B   // per stem index: OR over poDiff
	goodOut []B   // good output vectors of the last capture chunk
}

func newWideEngine[B widesim.Block[B]](plan *Plan) *wideEngine[B] {
	c := plan.c
	maxFanin := 1
	for i := range c.Nodes {
		if n := len(c.Nodes[i].Fanin); n > maxFanin {
			maxFanin = n
		}
	}
	return &wideEngine[B]{
		plan:    plan,
		good:    widesim.NewSim[B](plan.wideProgram()),
		sens:    make([]B, c.NumNodes()),
		obs:     make([]B, len(plan.ffr.Stems)),
		need:    make([]bool, len(plan.ffr.Stems)),
		fvals:   make([]B, c.NumNodes()),
		changed: make([]bool, c.NumNodes()),
		dirty:   make([]circuit.NodeID, 0, 64),
		pinbuf:  make([]B, maxFanin),
		prebuf:  make([]B, maxFanin),
		lanebuf: make([]uint64, maxFanin),
		evalbuf: make([]B, maxFanin),
	}
}

// Width returns the engine's lane count.
func (e *wideEngine[B]) Width() int {
	var z B
	return z.Lanes()
}

// Release returns the engine to its plan's pool.
func (e *wideEngine[B]) Release() {
	e.plan.widePools[widthSlot(e.Width())].Put(e)
}

// SimulateChunk mirrors Engine.SimulateChunk over W lanes.
func (e *wideEngine[B]) SimulateChunk(inputWords []uint64, det []uint64, liveGroups []bool) {
	if err := e.good.SetInputs(inputWords); err != nil {
		panic(err) // callers size the chunk from the plan's circuit
	}
	e.good.Run()
	g := e.good.Values()
	e.markNeeds(liveGroups)
	e.sensSweep(g)

	ffr := e.plan.ffr
	for si := len(ffr.Stems) - 1; si >= 0; si-- {
		if !e.need[si] {
			continue
		}
		s := ffr.Stems[si]
		if e.plan.c.Node(s).IsOutput {
			e.obs[si] = widesim.Ones[B]()
			continue
		}
		e.obs[si] = e.propagateStem(g, si, s)
	}

	w := e.Width()
	for si, grp := range e.plan.part.Groups {
		if liveGroups != nil && !liveGroups[si] {
			continue
		}
		for _, fi := range grp {
			e.faultWord(g, int(fi)).And(e.obs[si]).Store(det[int(fi)*w : (int(fi)+1)*w])
		}
	}
}

// faultWord mirrors Engine.faultWord, composing the kind conditions
// from the fused lane kernels.  Shl1 shifts per lane, never across
// lanes: launch/capture pairing is block-local, so every lane computes
// exactly what a narrow SimulateChunk of that block would.
func (e *wideEngine[B]) faultWord(g []B, fi int) B {
	in := &e.plan.info[fi]
	act := g[in.site]
	if in.stuck != 0 {
		act = act.Not()
	}
	switch in.kind {
	case fault.KindBridgeAND, fault.KindBridgeOR:
		// act &^= g[aggr] ^ stuck
		if in.stuck != 0 {
			act = act.And(g[in.aggr])
		} else {
			act = act.AndNot(g[in.aggr])
		}
	case fault.KindSlowRise, fault.KindSlowFall:
		// act &^= (g[site] << 1) ^ stuck, then drop the launch-less
		// bit 0 of every lane.
		shl := g[in.site].Shl1()
		if in.stuck != 0 {
			act = act.And(shl)
		} else {
			act = act.AndNot(shl)
		}
		act = act.AndNot(widesim.Lsb[B]())
	}
	if act.IsZero() {
		var z B
		return z
	}
	if in.pin == fault.StemPin {
		return act.And(e.sens[in.site])
	}
	return act.And(e.pinSens1(g, in.gate, int(in.pin))).And(e.sens[in.gate])
}

// markNeeds is width-independent and identical to Engine.markNeeds.
func (e *wideEngine[B]) markNeeds(liveGroups []bool) {
	ffr := e.plan.ffr
	for si := range ffr.Stems {
		if liveGroups != nil {
			e.need[si] = liveGroups[si]
		} else {
			e.need[si] = len(e.plan.part.Groups[si]) > 0
		}
	}
	for si, s := range ffr.Stems {
		if !e.need[si] || e.plan.c.Node(s).IsOutput {
			continue
		}
		if d := ffr.Idom[s]; d >= 0 {
			e.need[ffr.StemIndex[d]] = true
		}
	}
}

// sensSweep mirrors Engine.sensSweep.
func (e *wideEngine[B]) sensSweep(g []B) {
	c := e.plan.c
	ffr := e.plan.ffr
	for si := range ffr.Stems {
		if !e.need[si] {
			continue
		}
		members := ffr.Members[si]
		e.sens[members[0]] = widesim.Ones[B]()
		for _, id := range members {
			n := &c.Nodes[id]
			if n.IsInput || len(n.Fanin) == 0 {
				continue
			}
			sout := e.sens[id]
			ps := e.pinSensAll(g, id, n)
			for pin, f := range n.Fanin {
				if ffr.StemIndex[f] == int32(si) {
					e.sens[f] = sout.And(ps[pin])
				}
			}
		}
	}
}

// propagateStem mirrors Engine.propagateStem.  The changed flags are
// per node, not per lane: fvals of a visited node holds the exact
// faulty value in every lane (equal to the good value on lanes where
// the flip was absorbed), so evaluating fanins from fvals wherever
// changed is set stays exact lane-wise — the same argument that makes
// the narrow engine exact across the 64 patterns of one word.
func (e *wideEngine[B]) propagateStem(g []B, si int, s circuit.NodeID) B {
	ffr := e.plan.ffr
	d := ffr.Idom[s]
	var zero B
	if d == circuit.InvalidNode {
		return zero
	}
	region := e.plan.regions[si]
	sinkMode := d == circuit.DomSink
	var acc B
	e.fvals[s] = g[s].Not()
	e.changed[s] = true
	dirty := append(e.dirty[:0], s)
	c := e.plan.c
	for _, id := range region {
		n := &c.Nodes[id]
		needs := false
		for _, f := range n.Fanin {
			if e.changed[f] {
				needs = true
				break
			}
		}
		if !needs {
			continue
		}
		v := e.evalChanged(g, id, n)
		if v == g[id] {
			continue // flip absorbed here in every lane
		}
		e.fvals[id] = v
		e.changed[id] = true
		dirty = append(dirty, id)
		if sinkMode && n.IsOutput {
			acc = acc.Or(v.Xor(g[id]))
		}
	}
	var res B
	if sinkMode {
		res = acc
	} else if e.changed[d] {
		res = e.fvals[d].Xor(g[d]).And(e.sens[d]).And(e.obs[ffr.StemIndex[d]])
	}
	for _, id := range dirty {
		e.changed[id] = false
	}
	e.dirty = dirty[:0]
	return res
}

// evalChanged mirrors Engine.evalChanged with the value selection
// inlined (the narrow engine's closure shows up in profiles).
func (e *wideEngine[B]) evalChanged(g []B, id circuit.NodeID, n *circuit.Node) B {
	switch len(n.Fanin) {
	case 1:
		f := n.Fanin[0]
		v := g[f]
		if e.changed[f] {
			v = e.fvals[f]
		}
		switch n.Op {
		case logic.Buf, logic.And, logic.Or, logic.Xor:
			return v
		case logic.Not, logic.Nand, logic.Nor, logic.Xnor:
			return v.Not()
		}
	case 2:
		fa, fb := n.Fanin[0], n.Fanin[1]
		a, b := g[fa], g[fb]
		if e.changed[fa] {
			a = e.fvals[fa]
		}
		if e.changed[fb] {
			b = e.fvals[fb]
		}
		switch n.Op {
		case logic.And:
			return a.And(b)
		case logic.Nand:
			return a.And(b).Not()
		case logic.Or:
			return a.Or(b)
		case logic.Nor:
			return a.Or(b).Not()
		case logic.Xor:
			return a.Xor(b)
		case logic.Xnor:
			return a.Xor(b).Not()
		}
	}
	buf := e.evalbuf[:len(n.Fanin)]
	for i, f := range n.Fanin {
		if e.changed[f] {
			buf[i] = e.fvals[f]
		} else {
			buf[i] = g[f]
		}
	}
	return e.evalVector(n, buf)
}

// evalVector evaluates a general gate on gathered lane vectors: n-ary
// basic ops fold with the fused kernels; tables evaluate per lane.
func (e *wideEngine[B]) evalVector(n *circuit.Node, in []B) B {
	switch n.Op {
	case logic.And, logic.Nand:
		v := in[0]
		for _, x := range in[1:] {
			v = v.And(x)
		}
		if n.Op == logic.Nand {
			v = v.Not()
		}
		return v
	case logic.Or, logic.Nor:
		v := in[0]
		for _, x := range in[1:] {
			v = v.Or(x)
		}
		if n.Op == logic.Nor {
			v = v.Not()
		}
		return v
	case logic.Xor, logic.Xnor:
		v := in[0]
		for _, x := range in[1:] {
			v = v.Xor(x)
		}
		if n.Op == logic.Xnor {
			v = v.Not()
		}
		return v
	}
	// Truth tables (and any remaining op): per-lane evaluation through
	// the narrow word kernels, exactly as bitsim would.
	var v B
	w := v.Lanes()
	buf := e.lanebuf[:len(in)]
	for l := 0; l < w; l++ {
		for i := range in {
			buf[i] = in[i].Lane(l)
		}
		if n.Op == logic.TableOp {
			v = v.WithLane(l, n.Table.EvalWord(buf))
		} else {
			v = v.WithLane(l, logic.EvalWord(n.Op, buf))
		}
	}
	return v
}

// pinSensAll mirrors Engine.pinSensAll.
func (e *wideEngine[B]) pinSensAll(g []B, id circuit.NodeID, n *circuit.Node) []B {
	npins := len(n.Fanin)
	ps := e.pinbuf[:npins]
	switch n.Op {
	case logic.Xor, logic.Xnor:
		ones := widesim.Ones[B]()
		for i := range ps {
			ps[i] = ones
		}
		return ps
	case logic.Buf, logic.Not:
		ps[0] = widesim.Ones[B]()
		return ps
	case logic.And, logic.Nand:
		if npins == 1 {
			ps[0] = widesim.Ones[B]()
			return ps
		}
		if npins == 2 {
			ps[0] = g[n.Fanin[1]]
			ps[1] = g[n.Fanin[0]]
			return ps
		}
		pre := e.prebuf[:npins]
		acc := widesim.Ones[B]()
		for i, f := range n.Fanin {
			pre[i] = acc
			acc = acc.And(g[f])
		}
		suf := widesim.Ones[B]()
		for i := npins - 1; i >= 0; i-- {
			ps[i] = pre[i].And(suf)
			suf = suf.And(g[n.Fanin[i]])
		}
		return ps
	case logic.Or, logic.Nor:
		if npins == 1 {
			ps[0] = widesim.Ones[B]()
			return ps
		}
		if npins == 2 {
			ps[0] = g[n.Fanin[1]].Not()
			ps[1] = g[n.Fanin[0]].Not()
			return ps
		}
		pre := e.prebuf[:npins]
		var acc B
		for i, f := range n.Fanin {
			pre[i] = acc
			acc = acc.Or(g[f])
		}
		var suf B
		for i := npins - 1; i >= 0; i-- {
			ps[i] = pre[i].Or(suf).Not()
			suf = suf.Or(g[n.Fanin[i]])
		}
		return ps
	}
	for i := range ps {
		ps[i] = e.flipEval(g, id, n, i)
	}
	return ps
}

// pinSens1 mirrors Engine.pinSens1.
func (e *wideEngine[B]) pinSens1(g []B, id circuit.NodeID, pin int) B {
	n := &e.plan.c.Nodes[id]
	switch n.Op {
	case logic.Xor, logic.Xnor, logic.Buf, logic.Not:
		return widesim.Ones[B]()
	case logic.And, logic.Nand:
		v := widesim.Ones[B]()
		for i, f := range n.Fanin {
			if i != pin {
				v = v.And(g[f])
			}
		}
		return v
	case logic.Or, logic.Nor:
		var v B
		for i, f := range n.Fanin {
			if i != pin {
				v = v.Or(g[f])
			}
		}
		return v.Not()
	}
	return e.flipEval(g, id, n, pin)
}

// flipEval mirrors Engine.flipEval: evaluate with one pin complemented
// and XOR against the good output.
func (e *wideEngine[B]) flipEval(g []B, id circuit.NodeID, n *circuit.Node, pin int) B {
	buf := e.evalbuf[:len(n.Fanin)]
	for i, f := range n.Fanin {
		buf[i] = g[f]
	}
	buf[pin] = buf[pin].Not()
	return e.evalVector(n, buf).Xor(g[id])
}

// ---------------------------------------------------------------------
// Capture mode (BIST), mirroring Engine.SimulateChunkOutputs et al.

// SimulateChunkOutputs mirrors Engine.SimulateChunkOutputs over W lanes.
func (e *wideEngine[B]) SimulateChunkOutputs(inputWords []uint64, det []uint64) {
	c := e.plan.c
	if err := e.good.SetInputs(inputWords); err != nil {
		panic(err)
	}
	e.good.Run()
	g := e.good.Values()
	nOut := len(c.Outputs)
	if e.poDiff == nil {
		e.poDiff = make([][]B, len(e.plan.ffr.Stems))
		e.stemDet = make([]B, len(e.plan.ffr.Stems))
		e.local = make([]B, len(e.plan.faults))
		e.goodOut = make([]B, nOut)
	}
	for i, id := range c.Outputs {
		e.goodOut[i] = g[id]
	}
	for si := range e.need {
		e.need[si] = len(e.plan.part.Groups[si]) > 0
	}
	e.sensSweep(g)

	full := e.plan.ensureFullRegions()
	ffr := e.plan.ffr
	w := e.Width()
	for si, grp := range e.plan.part.Groups {
		if len(grp) == 0 {
			continue
		}
		if e.poDiff[si] == nil {
			e.poDiff[si] = make([]B, nOut)
		}
		e.captureStem(g, ffr.Stems[si], full[si], e.poDiff[si])
		var acc B
		for _, x := range e.poDiff[si] {
			acc = acc.Or(x)
		}
		e.stemDet[si] = acc
		for _, fi := range grp {
			l := e.faultWord(g, int(fi))
			e.local[fi] = l
			l.And(acc).Store(det[int(fi)*w : (int(fi)+1)*w])
		}
	}
}

// captureStem mirrors Engine.captureStem.
func (e *wideEngine[B]) captureStem(g []B, s circuit.NodeID, region []circuit.NodeID, po []B) {
	var zero B
	for i := range po {
		po[i] = zero
	}
	c := e.plan.c
	e.fvals[s] = g[s].Not()
	e.changed[s] = true
	dirty := append(e.dirty[:0], s)
	if oi := e.plan.outIdx[s]; oi >= 0 {
		po[oi] = widesim.Ones[B]()
	}
	for _, id := range region {
		n := &c.Nodes[id]
		needs := false
		for _, f := range n.Fanin {
			if e.changed[f] {
				needs = true
				break
			}
		}
		if !needs {
			continue
		}
		v := e.evalChanged(g, id, n)
		if v == g[id] {
			continue
		}
		e.fvals[id] = v
		e.changed[id] = true
		dirty = append(dirty, id)
		if oi := e.plan.outIdx[id]; oi >= 0 {
			po[oi] = v.Xor(g[id])
		}
	}
	for _, id := range dirty {
		e.changed[id] = false
	}
	e.dirty = dirty[:0]
}

// FaultOutputs mirrors Engine.FaultOutputs in lane-major layout.
func (e *wideEngine[B]) FaultOutputs(fi int, out []uint64) {
	si := e.plan.info[fi].group
	l := e.local[fi]
	po := e.poDiff[si]
	w := e.Width()
	for i, gw := range e.goodOut {
		gw.Xor(l.And(po[i])).Store(out[i*w : (i+1)*w])
	}
}

// GoodOutputWords copies the good output vectors of the last capture
// chunk in lane-major layout.
func (e *wideEngine[B]) GoodOutputWords(dst []uint64) {
	w := e.Width()
	for i, gw := range e.goodOut {
		gw.Store(dst[i*w : (i+1)*w])
	}
}
