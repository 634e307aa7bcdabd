package faultsim

import (
	"context"
	"sort"

	"protest/internal/pattern"
)

// This file exports the deterministic block schedules of the two
// measurements, so a distributed coordinator and its workers can
// agree — without any communication — on exactly which 64-pattern
// blocks a run consists of, which patterns of each block count, and
// how many patterns have been applied once a block has run.  The
// measurement driver walks the same schedules; the shard engine's
// exactness proof rests on that.

// BlockSpan describes one 64-pattern block of a measurement run: the
// valid-pattern mask (bit b set = pattern b of the block counts) and
// the cumulative number of patterns applied once the block has run.
type BlockSpan struct {
	Mask uint64
	End  int
}

// Schedule is the block schedule of one measurement run.  It is
// described by the ascending cumulative pattern counts at which its
// segments end and walked arithmetically, so neither its length nor a
// range of its blocks costs memory proportional to the run.
type Schedule struct {
	ends []int
}

// DetectSchedule returns the schedule of a detection-probability run
// over numPatterns patterns: ceil(numPatterns/64) blocks, every mask
// full except the last, which keeps only the remainder.
func DetectSchedule(numPatterns int) Schedule {
	return Schedule{ends: []int{numPatterns}}
}

// CurveSchedule returns the schedule of a coverage-curve run: blocks
// restart at every checkpoint, so a segment whose remainder is under
// 64 patterns ends with a short, masked block.  Checkpoints are sorted
// internally.
//
// A curve run stops simulating once every fault is detected; a shard
// worker running its whole range anyway produces the same result,
// because detected faults never change state again.
func CurveSchedule(checkpoints []int) Schedule {
	cps := append([]int(nil), checkpoints...)
	sort.Ints(cps)
	return Schedule{ends: cps}
}

// Len returns the number of blocks in the schedule.
func (s Schedule) Len() int {
	n, applied := 0, 0
	for _, e := range s.ends {
		if e > applied {
			n += (e - applied + 63) / 64
			applied = e
		}
	}
	return n
}

// last returns the cumulative pattern count at the end of the run.
func (s Schedule) last() int {
	if len(s.ends) == 0 {
		return 0
	}
	return s.ends[len(s.ends)-1]
}

// blockCursor walks a schedule block by block.
type blockCursor struct {
	ends    []int // segments not yet finished
	applied int
}

// from returns a cursor positioned before block lo.  Every block but
// the last of a segment is full, so skipping is arithmetic.
func (s Schedule) from(lo int) blockCursor {
	c := blockCursor{ends: s.ends}
	for lo > 0 && len(c.ends) > 0 {
		if e := c.ends[0]; e > c.applied {
			nb := (e - c.applied + 63) / 64
			if lo < nb {
				c.applied += lo * 64
				return c
			}
			lo -= nb
			c.applied = e
		}
		c.ends = c.ends[1:]
	}
	return c
}

// next returns the next block, or false past the end of the schedule.
func (c *blockCursor) next() (BlockSpan, bool) {
	for len(c.ends) > 0 && c.ends[0] <= c.applied {
		c.ends = c.ends[1:]
	}
	if len(c.ends) == 0 {
		return BlockSpan{}, false
	}
	valid := c.ends[0] - c.applied
	c.applied += min(64, valid)
	return BlockSpan{Mask: blockMask(valid), End: c.applied}, true
}

// Rect is one rectangle of a run's (FFR group × block) grid: groups
// [GroupLo, GroupHi) and blocks [BlockLo, BlockHi), both half-open.
type Rect struct {
	GroupLo, GroupHi, BlockLo, BlockHi int
}

// ShardCounts runs the rectangle r of the detection schedule sched,
// with gen positioned at block r.BlockLo, and returns the detection
// count of every fault of r's groups, in ascending fault order.  Only
// those groups are simulated.
func (p *Plan) ShardCounts(ctx context.Context, gen *pattern.Generator, sched Schedule, r Rect, width int) ([]int, error) {
	idx := p.groupFaults(r)
	if len(idx) == 0 {
		return nil, nil
	}
	live := make([]bool, p.NumGroups())
	for g := r.GroupLo; g < r.GroupHi; g++ {
		live[g] = true
	}
	return p.countDetections(ctx, gen, sched, r.BlockLo, r.BlockHi, Options{Width: width}, idx, live, nil)
}

// ShardFirsts runs the rectangle r of the curve schedule sched, with
// gen positioned at block r.BlockLo, and returns the first-detection
// position of every fault of r's groups — the End of the earliest
// block of r detecting it, or -1 — in ascending fault order.  Groups
// drop once all their faults in r are detected; a fault another shard
// detected earlier stays live here, which the coordinator's min-merge
// makes invisible.
func (p *Plan) ShardFirsts(ctx context.Context, gen *pattern.Generator, sched Schedule, r Rect, width int) ([]int, error) {
	idx := p.groupFaults(r)
	if len(idx) == 0 {
		return nil, nil
	}
	return p.firstDetections(ctx, gen, sched, r.BlockLo, r.BlockHi, Options{Width: width}, idx, nil)
}

// groupFaults returns the faults whose FFR group lies in r's group
// range, in ascending fault order.
func (p *Plan) groupFaults(r Rect) []int32 {
	var idx []int32
	for i, g := range p.build().part.GroupOf {
		if int(g) >= r.GroupLo && int(g) < r.GroupHi {
			idx = append(idx, int32(i))
		}
	}
	return idx
}
