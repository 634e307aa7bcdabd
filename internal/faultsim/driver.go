package faultsim

import (
	"context"
	"math/bits"
	"runtime"
	"sync"

	"protest/internal/fault"
	"protest/internal/pattern"
	"protest/internal/widesim"
)

// This file is the one measurement driver: every detection count,
// coverage curve, shard rectangle and self-test capture in the
// repository is a fold over the chunks it simulates.  Its four
// parameters are the engine (Options.Engine), the width
// (Options.Width), the worker count (Options.Workers) and the fold
// itself (detect, curve or capture).

// parallelWorkers resolves an Options.Workers value: <= 1 is serial
// (1), negative selects GOMAXPROCS, and anything above GOMAXPROCS is
// clamped to it.  The goroutines are CPU-bound with no blocking between
// chunks, so running more of them than cores cannot help and the bench
// trail shows oversubscription actively hurting on small machines; the
// chunk distribution (and therefore every result) is identical either
// way.
func parallelWorkers(workers, nFaults int) int {
	if maxProcs := runtime.GOMAXPROCS(0); workers < 0 || workers > maxProcs {
		workers = maxProcs
	}
	if workers <= 1 || nFaults == 0 {
		return 1
	}
	return workers
}

// resolveWidth normalizes an Options.Width value (0 means narrow).
func resolveWidth(w int) int {
	if w == 0 {
		return 1
	}
	return w
}

// chunkFold receives each simulated chunk in block order: eng is the
// engine that simulated it (its capture state stays valid for the
// call), det its detection words det[fi*W+l], and blocks the chunk's
// k <= W blocks, lane l holding blocks[l].  Returning true stops the
// run.
type chunkFold func(eng WideEngine, det []uint64, blocks []BlockSpan) (stop bool)

// acquire returns an engine of opt's kind over the plan.
func (p *Plan) acquire(opt Options) WideEngine {
	switch {
	case opt.Engine == EngineNaive:
		return &naiveEngine{s: New(p.c), faults: p.faults}
	case resolveWidth(opt.Width) == 1:
		return p.AcquireEngine()
	}
	return p.AcquireWideEngine(opt.Width)
}

// sweep is the measurement driver.  It walks blocks [lo, hi) of sched
// in waves of up to `workers` chunks of W blocks, drawing every chunk
// from gen in block order (the same stream a one-block-at-a-time run
// draws), simulates the wave's chunks concurrently — serially inline
// at one worker, with no goroutines and no per-chunk allocations — and
// then folds them in block order.  live is read by the engines during
// a wave and may be changed by fold between waves.  ctx is checked
// once per wave; progress receives (End of each folded block, End of
// the schedule), and (end, end) when fold stops the run early, after
// the wave has drawn all its blocks (see the package doc).
func (p *Plan) sweep(ctx context.Context, gen *pattern.Generator, sched Schedule, lo, hi int, opt Options, capture bool, live []bool, fold chunkFold, progress Progress) error {
	w := 1
	if opt.Engine != EngineNaive {
		if err := widesim.CheckWidth(opt.Width); err != nil {
			return err
		}
		w = resolveWidth(opt.Width)
	}
	n := hi - lo
	if n <= 0 {
		return nil
	}
	workers := min(parallelWorkers(opt.Workers, len(p.faults)), (n+w-1)/w)
	engines := make([]WideEngine, workers)
	words := make([][]uint64, workers)
	dets := make([][]uint64, workers)
	lanes := make([]int, workers)
	for j := range engines {
		engines[j] = p.acquire(opt)
		words[j] = make([]uint64, len(p.c.Inputs)*w)
		dets[j] = make([]uint64, len(p.faults)*w)
	}
	defer func() {
		for _, e := range engines {
			e.Release()
		}
	}()
	simulate := func(j int) {
		if capture {
			engines[j].SimulateChunkOutputs(words[j], dets[j])
		} else {
			engines[j].SimulateChunk(words[j], dets[j], live)
		}
	}

	cur := sched.from(lo)
	total := sched.last()
	blocks := make([]BlockSpan, 0, workers*w)
	var wg sync.WaitGroup
	for n > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		blocks = blocks[:0]
		k := 0
		for ; k < workers && len(blocks) < n; k++ {
			lanes[k] = min(w, n-len(blocks))
			for range lanes[k] {
				b, _ := cur.next()
				blocks = append(blocks, b)
			}
			gen.NextBlocks(words[k], w, lanes[k])
		}
		if k == 1 {
			simulate(0)
		} else {
			wg.Add(k)
			for j := range k {
				go func() {
					defer wg.Done()
					simulate(j)
				}()
			}
			wg.Wait()
		}
		at := 0
		for j := range k {
			chunk := blocks[at : at+lanes[j]]
			at += lanes[j]
			if fold(engines[j], dets[j], chunk) {
				if progress != nil {
					progress(total, total)
				}
				return nil
			}
			if progress != nil {
				for _, b := range chunk {
					progress(b.End, total)
				}
			}
		}
		n -= len(blocks)
	}
	return nil
}

// naiveEngine is the oracle Simulator as a W=1 WideEngine.  Its groups
// are singletons — liveGroups is indexed by fault — so dropping stays
// per fault, and it never reads the plan's FFR structure.
type naiveEngine struct {
	s      *Simulator
	faults []fault.Fault
	out    []uint64 // capture: faulty output words, fault-major
}

func (e *naiveEngine) Width() int { return 1 }
func (e *naiveEngine) Release()   {}

func (e *naiveEngine) SimulateChunk(inputWords []uint64, det []uint64, liveGroups []bool) {
	g := e.s.runGood(inputWords)
	for fi, f := range e.faults {
		if liveGroups == nil || liveGroups[fi] {
			det[fi] = e.s.simulateFault(g, f)
		}
	}
}

// SimulateChunkOutputs re-simulates every fault's cone once, capturing
// its faulty output words for FaultOutputs.
func (e *naiveEngine) SimulateChunkOutputs(inputWords []uint64, det []uint64) {
	g := e.s.runGood(inputWords)
	nOut := len(e.s.c.Outputs)
	if e.out == nil {
		e.out = make([]uint64, len(e.faults)*nOut)
	}
	for fi, f := range e.faults {
		out := e.out[fi*nOut : (fi+1)*nOut]
		e.s.captureOut = out
		if det[fi] = e.s.simulateFault(g, f); det[fi] == 0 {
			// No output difference: the faulty responses equal the good
			// ones (the capture in propagate only runs when the fault
			// activates, so fill explicitly).
			e.s.good.OutputWords(out)
		}
	}
	e.s.captureOut = nil
}

func (e *naiveEngine) FaultOutputs(fi int, out []uint64) {
	nOut := len(e.s.c.Outputs)
	copy(out, e.out[fi*nOut:(fi+1)*nOut])
}

func (e *naiveEngine) GoodOutputWords(dst []uint64) { e.s.good.OutputWords(dst) }

// dropState tracks the undetected faults of a fault-dropping run and
// the live groups the engine still simulates: FFR groups, or single
// faults under the naive engine.
type dropState struct {
	idx       []int32 // measured faults
	groupOf   []int32 // fault -> group
	alive     []int32 // positions in idx of still-undetected faults
	liveCount []int32 // undetected measured faults per group
	live      []bool  // liveCount > 0
	first     []int   // per position in idx: End of the first detecting block, or -1
}

func (p *Plan) newDropState(idx []int32, naive bool) *dropState {
	d := &dropState{idx: idx, alive: make([]int32, len(idx)), first: make([]int, len(idx))}
	var nGroups int
	if naive {
		d.groupOf, nGroups = p.allFaults(), len(p.faults) // every fault is its own group
	} else {
		d.groupOf, nGroups = p.build().part.GroupOf, p.NumGroups()
	}
	d.liveCount = make([]int32, nGroups)
	d.live = make([]bool, nGroups)
	for k, fi := range idx {
		d.alive[k] = int32(k)
		d.first[k] = -1
		g := d.groupOf[fi]
		d.liveCount[g]++
		d.live[g] = true
	}
	return d
}

// dropLane retires the faults detected in one lane of a chunk's
// detection words det[fi*stride+lane], recording the block's End as
// their first-detection position.  A group left without undetected
// faults is skipped from the next chunk on.
func (d *dropState) dropLane(det []uint64, stride, lane int, b BlockSpan) {
	w := 0
	for _, k := range d.alive {
		fi := d.idx[k]
		if det[int(fi)*stride+lane]&b.Mask == 0 {
			d.alive[w] = k
			w++
			continue
		}
		d.first[k] = b.End
		g := d.groupOf[fi]
		if d.liveCount[g]--; d.liveCount[g] == 0 {
			d.live[g] = false
		}
	}
	d.alive = d.alive[:w]
}

// countDetections runs blocks [lo, hi) of sched and returns, for each
// fault of idx, the number of valid patterns detecting it.  live
// selects the groups the engine simulates (nil: all).
func (p *Plan) countDetections(ctx context.Context, gen *pattern.Generator, sched Schedule, lo, hi int, opt Options, idx []int32, live []bool, progress Progress) ([]int, error) {
	counts := make([]int, len(idx))
	err := p.sweep(ctx, gen, sched, lo, hi, opt, false, live, func(eng WideEngine, det []uint64, blocks []BlockSpan) bool {
		w := eng.Width()
		for l, b := range blocks {
			for k, fi := range idx {
				counts[k] += bits.OnesCount64(det[int(fi)*w+l] & b.Mask)
			}
		}
		return false
	}, progress)
	if err != nil {
		return nil, err
	}
	return counts, nil
}

// firstDetections runs blocks [lo, hi) of sched with fault dropping
// and returns, for each fault of idx, the End of the first block
// detecting it, or -1.  The run stops once every fault is detected.
func (p *Plan) firstDetections(ctx context.Context, gen *pattern.Generator, sched Schedule, lo, hi int, opt Options, idx []int32, progress Progress) ([]int, error) {
	d := p.newDropState(idx, opt.Engine == EngineNaive)
	err := p.sweep(ctx, gen, sched, lo, hi, opt, false, d.live, func(eng WideEngine, det []uint64, blocks []BlockSpan) bool {
		w := eng.Width()
		for l, b := range blocks {
			d.dropLane(det, w, l, b)
			if len(d.alive) == 0 {
				return true
			}
		}
		return false
	}, progress)
	if err != nil {
		return nil, err
	}
	return d.first, nil
}

// allFaults returns the indices of every planned fault.
func (p *Plan) allFaults() []int32 {
	idx := make([]int32, len(p.faults))
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}
