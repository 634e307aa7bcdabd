package shard

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/faultsim"
	"protest/internal/pattern"
)

const testSeed = 7

// newTestTask builds the Task for one registry circuit.
func newTestTask(t *testing.T, name string) *Task {
	t.Helper()
	c, ok := circuits.Lookup(name)
	if !ok {
		t.Fatalf("unknown circuit %q", name)
	}
	plan := faultsim.NewPlan(c, fault.Collapse(c))
	task, err := NewTask(plan, testSeed)
	if err != nil {
		t.Fatalf("NewTask(%s): %v", name, err)
	}
	return task
}

// localPool builds a Pool over the in-process transport with n
// pretend workers, fast timings, and any extra config applied.
func localPool(t *testing.T, n int, mod func(*Config)) *Pool {
	t.Helper()
	cfg := Config{
		Transport:     &LocalTransport{Exec: NewExecutor()},
		ShardTimeout:  5 * time.Second,
		ProbeInterval: time.Minute, // keep probes out of short tests
	}
	for i := 0; i < n; i++ {
		cfg.Workers = append(cfg.Workers, string(rune('a'+i)))
	}
	if mod != nil {
		mod(&cfg)
	}
	p := NewPool(cfg)
	t.Cleanup(p.Close)
	return p
}

// serialDetect runs the serial in-process oracle.
func serialDetect(t *testing.T, task *Task, probs []float64, n int) *faultsim.Result {
	t.Helper()
	gen, err := newGenerator(len(task.Plan.Circuit().Inputs), probs, task.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := task.Plan.MeasureDetectionCtx(context.Background(), gen, n, faultsim.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func serialCurve(t *testing.T, task *Task, probs []float64, cps []int) []faultsim.CoveragePoint {
	t.Helper()
	gen, err := newGenerator(len(task.Plan.Circuit().Inputs), probs, task.Seed)
	if err != nil {
		t.Fatal(err)
	}
	points, err := task.Plan.CoverageCurveCtx(context.Background(), gen, cps, faultsim.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return points
}

func sameDetect(t *testing.T, name string, got, want *faultsim.Result) {
	t.Helper()
	if got.Applied != want.Applied {
		t.Fatalf("%s: applied %d, want %d", name, got.Applied, want.Applied)
	}
	if len(got.Detected) != len(want.Detected) {
		t.Fatalf("%s: %d counts, want %d", name, len(got.Detected), len(want.Detected))
	}
	for i := range want.Detected {
		if got.Detected[i] != want.Detected[i] {
			t.Fatalf("%s: fault %d detected %d times, serial says %d",
				name, i, got.Detected[i], want.Detected[i])
		}
	}
}

func sameCurve(t *testing.T, name string, got, want []faultsim.CoveragePoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].Patterns != want[i].Patterns || got[i].Coverage != want[i].Coverage {
			t.Fatalf("%s: point %d = {%d, %v}, serial says {%d, %v}",
				name, i, got[i].Patterns, got[i].Coverage, want[i].Patterns, want[i].Coverage)
		}
	}
}

// TestShardedDetectMatchesSerial is the core exactness contract: the
// merged distributed measurement is bit-identical to the serial
// engine, on every registry circuit, including a pattern count that is
// not a multiple of the 64-pattern block size.
func TestShardedDetectMatchesSerial(t *testing.T) {
	for _, name := range circuits.Names() {
		t.Run(name, func(t *testing.T) {
			task := newTestTask(t, name)
			p := localPool(t, 3, nil)
			for _, n := range []int{257, 64} {
				got, err := p.MeasureDetection(context.Background(), task, nil, n, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameDetect(t, name, got, serialDetect(t, task, nil, n))
			}
		})
	}
}

// TestShardedDetectWeighted checks the weighted-pattern stream crosses
// the wire types bit-identically (float64 probabilities survive the
// Request round-trip exactly).
func TestShardedDetectWeighted(t *testing.T) {
	task := newTestTask(t, "alu")
	probs := make([]float64, len(task.Plan.Circuit().Inputs))
	for i := range probs {
		probs[i] = float64(i%15+1) / 16 // a quantized non-uniform tuple
	}
	p := localPool(t, 3, nil)
	got, err := p.MeasureDetection(context.Background(), task, probs, 320, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "alu/weighted", got, serialDetect(t, task, probs, 320))
}

// TestShardedCurveMatchesSerial checks coverage curves — first
// detection positions min-merged across shards — stay bit-identical,
// fault dropping and early termination included.
func TestShardedCurveMatchesSerial(t *testing.T) {
	cps := []int{10, 100, 257}
	for _, name := range circuits.Names() {
		t.Run(name, func(t *testing.T) {
			task := newTestTask(t, name)
			p := localPool(t, 3, nil)
			got, err := p.CoverageCurve(context.Background(), task, nil, cps, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameCurve(t, name, got, serialCurve(t, task, nil, cps))
		})
	}
}

// TestPlanShardsPartition checks the shard planner always produces an
// exact partition of the (group × block) grid.
func TestPlanShardsPartition(t *testing.T) {
	for _, tc := range []struct{ groups, blocks, target, max int }{
		{1, 1, 8, 64}, {1, 5, 12, 64}, {7, 1, 12, 64},
		{13, 17, 12, 64}, {100, 3, 12, 8}, {3, 100, 200, 64}, {5, 5, 1, 64},
	} {
		spans := planShards(tc.groups, tc.blocks, tc.target, tc.max)
		if len(spans) > tc.max {
			t.Fatalf("planShards(%v): %d shards over cap %d", tc, len(spans), tc.max)
		}
		seen := make(map[[2]int]int)
		for _, sp := range spans {
			if sp.gLo >= sp.gHi || sp.bLo >= sp.bHi {
				t.Fatalf("planShards(%v): empty span %+v", tc, sp)
			}
			for g := sp.gLo; g < sp.gHi; g++ {
				for b := sp.bLo; b < sp.bHi; b++ {
					seen[[2]int{g, b}]++
				}
			}
		}
		if len(seen) != tc.groups*tc.blocks {
			t.Fatalf("planShards(%v): covered %d cells, want %d", tc, len(seen), tc.groups*tc.blocks)
		}
		for cell, n := range seen {
			if n != 1 {
				t.Fatalf("planShards(%v): cell %v covered %d times", tc, cell, n)
			}
		}
	}
}

// TestEmptyPoolIsPermanentlyDegraded: no workers configured means
// every run executes locally — same results, degraded flagged.
func TestEmptyPoolIsPermanentlyDegraded(t *testing.T) {
	task := newTestTask(t, "c17")
	p := localPool(t, 0, nil)
	if !p.Degraded() {
		t.Fatal("empty pool not degraded")
	}
	got, err := p.MeasureDetection(context.Background(), task, nil, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "c17/degraded", got, serialDetect(t, task, nil, 200))
	st := p.Stats()
	if st.Runs != 1 || st.DegradedRuns != 1 {
		t.Fatalf("stats = %+v, want runs=1 degraded_runs=1", st)
	}
	if st.Shards != 0 {
		t.Fatalf("degraded run dispatched %d shards", st.Shards)
	}
}

// corruptTransport returns responses whose fault count does not match
// the coordinator's plan — a worker that reconstructed a different
// fault universe.
type corruptTransport struct{ inner Transport }

func (c *corruptTransport) Do(ctx context.Context, addr string, req *Request) (*Response, error) {
	resp, err := c.inner.Do(ctx, addr, req)
	if err != nil {
		return nil, err
	}
	resp.Faults++
	return resp, nil
}

func (c *corruptTransport) Probe(ctx context.Context, addr string) error { return nil }

// TestCorruptResponseRejected: a response failing the fault-count
// cross-check must never be merged — the pool treats it as a failure
// and the local fallback still produces the exact result.
func TestCorruptResponseRejected(t *testing.T) {
	task := newTestTask(t, "c17")
	p := localPool(t, 2, func(cfg *Config) {
		cfg.Transport = &corruptTransport{inner: &LocalTransport{Exec: NewExecutor()}}
		cfg.MaxAttempts = 2
		cfg.BackoffBase = time.Millisecond
		cfg.BackoffMax = 2 * time.Millisecond
		cfg.HedgeAfter = -1
	})
	got, err := p.MeasureDetection(context.Background(), task, nil, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "c17/corrupt", got, serialDetect(t, task, nil, 200))
	st := p.Stats()
	if st.LocalFallbacks == 0 {
		t.Fatal("corrupt responses merged without local fallback")
	}
	if st.Shards != 0 {
		t.Fatalf("%d corrupt responses recorded as successes", st.Shards)
	}
}

// TestSkipBlocksPositionsStream: SkipBlocks(k) then NextBlock must
// reproduce exactly the k-th block of a fresh generator — the property
// remote workers rely on to join a pattern stream mid-run.
func TestSkipBlocksPositionsStream(t *testing.T) {
	probs := []float64{0.5, 0.25, 1, 0, 0.8125}
	for skip := 0; skip < 4; skip++ {
		ref, err := pattern.NewWeighted(probs, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, len(probs))
		for i := 0; i <= skip; i++ {
			ref.NextBlock(want)
		}
		g, err := pattern.NewWeighted(probs, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		g.SkipBlocks(skip)
		got := make([]uint64, len(probs))
		g.NextBlock(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("skip %d: word %d = %x, want %x", skip, i, got[i], want[i])
			}
		}
	}
}

// TestShardedWideMatchesSerial pins the wide shard path: a pool whose
// shards run at SimWidth 4 or 8 merges to exactly the narrow serial
// result for both measurement kinds, on every registry circuit,
// including a pattern budget that leaves a partial final chunk.  A
// rectangle starting mid-run must complete its prefix to the whole run
// (counts add, first positions min-merge) at every width, and agree
// with its narrow self.
func TestShardedWideMatchesSerial(t *testing.T) {
	cps := []int{10, 100, 257}
	for _, name := range circuits.Names() {
		t.Run(name, func(t *testing.T) {
			task := newTestTask(t, name)
			wantDet := serialDetect(t, task, nil, 257)
			wantCurve := serialCurve(t, task, nil, cps)
			narrowTail := map[Kind]*Response{}
			for _, w := range []int{1, 4, 8} {
				p := localPool(t, 3, func(c *Config) { c.SimWidth = w })
				got, err := p.MeasureDetection(context.Background(), task, nil, 257, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameDetect(t, name, got, wantDet)
				curve, err := p.CoverageCurve(context.Background(), task, nil, cps, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameCurve(t, name, curve, wantCurve)

				for _, kind := range []Kind{KindDetect, KindCurve} {
					rect := func(lo, hi int) *Response {
						t.Helper()
						resp, err := runShard(context.Background(), task.Remote, &Request{
							Name: task.Name, Netlist: task.Netlist, Seed: task.Seed,
							Kind: kind, NumPatterns: 257, Checkpoints: cps,
							GroupLo: 0, GroupHi: task.Remote.NumGroups(), BlockLo: lo, BlockHi: hi,
							SimWidth: w,
						})
						if err != nil {
							t.Fatal(err)
						}
						return resp
					}
					n := (&Request{Kind: kind, NumPatterns: 257, Checkpoints: cps}).schedule().Len()
					whole, head, tail := rect(0, n), rect(0, 2), rect(2, n)
					for k := range whole.Counts {
						if whole.Counts[k] != head.Counts[k]+tail.Counts[k] {
							t.Fatalf("w%d fault %d: whole %d != head %d + tail %d",
								w, k, whole.Counts[k], head.Counts[k], tail.Counts[k])
						}
					}
					for k := range whole.First {
						merged := head.First[k]
						if merged < 0 || (tail.First[k] >= 0 && tail.First[k] < merged) {
							merged = tail.First[k]
						}
						if merged != whole.First[k] {
							t.Fatalf("w%d fault %d: min-merged first %d != whole %d", w, k, merged, whole.First[k])
						}
					}
					if ref := narrowTail[kind]; ref == nil {
						narrowTail[kind] = tail
					} else if !reflect.DeepEqual(tail, ref) {
						t.Fatalf("w%d %s: mid-run rectangle differs from its narrow run", w, kind)
					}
				}
			}
		})
	}
}

// TestShardHugeRunSmallRectangle: a request naming a huge run but a
// one-block rectangle costs one block, not the run's schedule.
func TestShardHugeRunSmallRectangle(t *testing.T) {
	task := newTestTask(t, "c17")
	for _, req := range []*Request{
		{Kind: KindDetect, NumPatterns: 64 << 22},
		{Kind: KindCurve, Checkpoints: []int{64 << 21, 64 << 22}},
	} {
		req.Name, req.Netlist, req.Seed = task.Name, task.Netlist, task.Seed
		req.GroupLo, req.GroupHi, req.BlockLo, req.BlockHi = 0, task.Remote.NumGroups(), 0, 1
		if _, err := runShard(context.Background(), task.Remote, req); err != nil {
			t.Fatal(err) // warm the engine pool
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := runShard(context.Background(), task.Remote, req); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: one-block rectangle of a %d-block run allocated %d bytes", req.Kind, req.schedule().Len(), got)
		}
		req.BlockLo, req.BlockHi = req.schedule().Len(), req.schedule().Len()+1
		if _, err := runShard(context.Background(), task.Remote, req); err == nil {
			t.Errorf("%s: rectangle past the run's end accepted", req.Kind)
		}
	}
}

// TestDegradedWideMatchesSerial checks the zero-worker fallback honours
// the pool's width and still reproduces the serial result exactly.
func TestDegradedWideMatchesSerial(t *testing.T) {
	task := newTestTask(t, "alu")
	p := localPool(t, 0, func(c *Config) { c.SimWidth = 8 })
	if !p.Degraded() {
		t.Fatal("empty pool should be degraded")
	}
	got, err := p.MeasureDetection(context.Background(), task, nil, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "alu/degraded-wide", got, serialDetect(t, task, nil, 300))
}

// TestShardWidthValidation checks unsupported widths are rejected at
// the request boundary rather than computed wrong.
func TestShardWidthValidation(t *testing.T) {
	task := newTestTask(t, "c17")
	req := &Request{
		Name: task.Name, Netlist: task.Netlist, Seed: task.Seed,
		Kind: KindDetect, NumPatterns: 128,
		GroupLo: 0, GroupHi: task.Remote.NumGroups(), BlockLo: 0, BlockHi: 2,
		SimWidth: 3,
	}
	if _, err := runShard(context.Background(), task.Remote, req); err == nil {
		t.Fatal("SimWidth 3 should be rejected")
	}
}
