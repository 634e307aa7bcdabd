// Command perfbench is the repository benchmark: it runs one workload
// against the public surfaces (protest.Session, and internal/server
// over loopback listeners), checks every output, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload pipeline|fsim|service --seed N --seconds S --trace 0|1
//	perfbench --smoke
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"protest/internal/artifact"
)

// workload is one benchmark workload.  setup opens its sessions or
// servers and makes an untimed warm pass over every distinct op;
// round returns the next whole round of steps, traced or not; counters
// snapshots the service's cumulative counters; finish runs the
// post-run output checks and, when traced, times layer calls made
// outside any op.
type workload interface {
	setup(ctx context.Context) error
	round(traced bool) []step
	counters(ctx context.Context) (map[string]float64, error)
	finish(ctx context.Context, rec *recorder, tr *tracer)
	close()
}

// library supplies the workload methods a library workload does not
// need.
type library struct{}

func (library) counters(context.Context) (map[string]float64, error) { return nil, nil }
func (library) finish(context.Context, *recorder, *tracer)           {}
func (library) close()                                               {}

var workloads = []string{"pipeline", "fsim", "service"}

func open(name string, seed uint64, traced bool, book *digestBook) (workload, error) {
	switch name {
	case "pipeline":
		return struct {
			library
			*pipelineWL
		}{pipelineWL: newPipeline(seed, book)}, nil
	case "fsim":
		return struct {
			library
			*fsimWL
		}{fsimWL: newFsim(seed, traced, book)}, nil
	case "service":
		return newService(seed, book), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloads, ", "))
}

// setupRuns is the number of set-ups whose median is setup_s; all but
// one run in fresh child processes, so each pays every cold cost.
const setupRuns = 3

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	setups   int  // set-ups measured for setup_s, one in this process
	record   bool // record the warm digests instead of checking them
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full outcome of a run: the result line plus the
// metadata line printed before it.
type report struct {
	result result
	meta   map[string]any
	book   *digestBook
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "seed of the op order, inputs and Session/server seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "timed seconds; whole rounds run until they pass (0: one round)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for trace files and the run ledger")
	probe := flag.Bool("setup-probe", false, "only set up the workload and print the set-up seconds")
	smoke := flag.Bool("smoke", false, "run one round of every workload, traced and not, and check the output")
	write := flag.String("write-digests", "", "record the warm-pass digests of every workload (default seed) into this file")
	flag.Parse()
	cfg.trace, cfg.setups = *trace == 1, setupRuns

	ctx := context.Background()
	var err error
	switch {
	case *probe:
		err = probeMain(ctx, cfg)
	case *smoke:
		err = smokeMain(ctx, cfg, "BENCHMARK.json")
	case *write != "":
		err = writeDigests(ctx, cfg, *write)
	default:
		var rep *report
		if rep, err = run(ctx, cfg); err == nil {
			err = printReport(rep)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setUp opens the workload and sets it up.  It returns the set-up
// wall time, raw and scaled to the reference host speed by a
// calibration taken just before.
func setUp(ctx context.Context, cfg runConfig, book *digestBook) (w workload, raw, scaled float64, err error) {
	// Nothing of the program runs yet, so the calibration is clean.
	cal, _ := calibrateClean()
	scale := hostScale(cal)
	start := time.Now()
	if w, err = open(cfg.workload, cfg.seed, cfg.trace, book); err != nil {
		return nil, 0, 0, err
	}
	if err = w.setup(ctx); err != nil {
		w.close()
		return nil, 0, 0, err
	}
	raw = time.Since(start).Seconds()
	return w, raw, raw * scale, nil
}

// probeMain is the child side of a set-up measurement: it prints the
// raw and the scaled set-up seconds.
func probeMain(ctx context.Context, cfg runConfig) error {
	book, err := newDigestBook(cfg.seed, true)
	if err != nil {
		return err
	}
	w, raw, scaled, err := setUp(ctx, cfg, book)
	if err != nil {
		return err
	}
	w.close()
	fmt.Println(raw, scaled)
	return nil
}

// probeSetup measures one set-up in a fresh child process, so it pays
// every cold cost the first set-up of this process paid.
func probeSetup(ctx context.Context, cfg runConfig) (raw, scaled float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "--setup-probe", "--workload", cfg.workload,
		"--seed", strconv.FormatUint(cfg.seed, 10), "--out", cfg.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, fmt.Errorf("set-up probe: %w", err)
	}
	if _, err := fmt.Sscan(string(out), &raw, &scaled); err != nil {
		return 0, 0, fmt.Errorf("set-up probe output %q: %w", out, err)
	}
	return raw, scaled, nil
}

// loop runs whole rounds until budget has passed, at least one round.
// The round's steps are built, and the host calibrated, before the
// round's timing starts.
func loop(ctx context.Context, w workload, traced bool, budget time.Duration, rec *recorder, tr *tracer) {
	start := time.Now()
	for first := true; first || time.Since(start) < budget; first = false {
		steps := w.round(traced)
		cal, clean := calibrateClean()
		rec.cur = len(rec.rounds)
		t, cpu, done := time.Now(), cpuTime(), rec.completed()
		for _, st := range steps {
			runStep(ctx, st, rec, tr)
		}
		rec.rounds = append(rec.rounds, roundStat{rec.completed() - done, time.Since(t), cpuTime() - cpu, cal, clean})
	}
}

func run(ctx context.Context, cfg runConfig) (*report, error) {
	var rawSetups, setups []float64
	for i := 1; i < cfg.setups && !cfg.trace; i++ {
		raw, scaled, err := probeSetup(ctx, cfg)
		if err != nil {
			return nil, err
		}
		rawSetups, setups = append(rawSetups, raw), append(setups, scaled)
	}
	book, err := newDigestBook(cfg.seed, cfg.record)
	if err != nil {
		return nil, err
	}
	w, raw, scaled, err := setUp(ctx, cfg, book)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rawSetups, setups = append(rawSetups, raw), append(setups, scaled)

	builds0 := artifact.Default.Stats().Builds
	c0, err := w.counters(ctx)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	rec := &recorder{}
	var trec *recorder
	var tr *tracer
	if cfg.trace {
		// The untraced first half is the baseline of the tracing
		// overhead.
		loop(ctx, w, false, budget/2, rec, nil)
		tr, trec = newTracer(), &recorder{}
		loop(ctx, w, true, budget-budget/2, trec, tr)
	} else {
		loop(ctx, w, false, budget, rec, nil)
	}
	buildsTimed := float64(artifact.Default.Stats().Builds - builds0)
	c1, err := w.counters(ctx)
	if err != nil {
		return nil, err
	}
	// Read before the post-run checks, which open Sessions of their own.
	rss := peakRSSMB()
	w.finish(ctx, rec, tr)

	delta := map[string]float64{}
	for k, v := range c1 {
		delta[k] = v - c0[k]
	}
	derived := counterMetrics(delta, buildsTimed)
	values, rawValues := map[string]float64{}, map[string]float64{}
	cal, dirty := rec.calibrations()
	scale := hostScale(cal)
	if cfg.trace {
		values = layerMetrics(tr.stats(), rec, trec, derived)
		if err := tr.write(filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	} else {
		// Each round's figures are scaled by the calibration taken
		// just before it, and per-round medians keep a burst of
		// interference in one round out of the run's figure.
		scales := rec.roundScales()
		unscaled := func(int) float64 { return 1 }
		byRound := func(i int) float64 { return scales[i] }
		// Light service requests are loopback round trips of a few
		// milliseconds that follow host speed about half as much as
		// the calibration kernel does (see README.md).
		lightScale := byRound
		if cfg.workload == "service" {
			lightScale = func(i int) float64 { return math.Sqrt(scales[i]) }
		}
		opsPerS := func(i int, r roundStat) float64 { return ratio(float64(r.ops), r.wall.Seconds()) }
		cpuPerOp := func(i int, r roundStat) float64 { return ratio(ms(r.cpu), float64(r.ops)) }
		rawValues["setup_s"] = median(rawSetups)
		rawValues["ops_per_s"] = rec.perRound(opsPerS)
		rawValues["cpu_ms_per_op"] = rec.perRound(cpuPerOp)
		rawValues["light_p50_ms"] = rec.classP50("light", unscaled)
		rawValues["heavy_p50_ms"] = rec.classP50("heavy", unscaled)
		values["setup_s"] = median(setups)
		values["ops_per_s"] = rec.perRound(func(i int, r roundStat) float64 { return opsPerS(i, r) / scales[i] })
		values["cpu_ms_per_op"] = rec.perRound(func(i int, r roundStat) float64 { return cpuPerOp(i, r) * scales[i] })
		values["light_p50_ms"] = rec.classP50("light", lightScale)
		values["heavy_p50_ms"] = rec.classP50("heavy", byRound)
		values["peak_rss_mb"] = rss
	}

	res := result{Attempted: rec.attempted, Failed: rec.failed + len(book.errs), Metrics: map[string]metric{}}
	errs := append([]string(nil), rec.errs...)
	if trec != nil {
		res.Attempted += trec.attempted
		res.Failed += trec.failed
		errs = append(errs, trec.errs...)
	}
	for _, err := range book.errs {
		errs = append(errs, err.Error())
	}
	res.Attempted += len(book.errs)
	res.Correct = res.Failed == 0
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{values[d.name], d.unit}
	}

	meta := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace,
		"host": host(), "host_scale": scale, "raw": rawValues, "counters": derived,
		"tails": tails(rec), "kind_p50_ms": kindMedians(rec), "errors": errs,
	}
	flags, err := ledger(cfg, derived)
	if err != nil {
		return nil, err
	}
	if trec != nil {
		_, d := trec.calibrations()
		dirty += d
	}
	if dirty > 0 {
		flags = append(flags, fmt.Sprintf("%d calibrations overlapped program CPU work after %d tries", dirty, calTries))
	}
	meta["flags"] = flags
	for _, f := range flags {
		fmt.Fprintln(os.Stderr, "perfbench: flag:", f)
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	return &report{result: res, meta: meta, book: book}, nil
}

func printReport(rep *report) error {
	for _, v := range []any{rep.meta, rep.result} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

// writeDigests records the warm-pass digests of every workload under
// the default seed.
func writeDigests(ctx context.Context, cfg runConfig, path string) error {
	var book *digestBook
	for _, name := range workloads {
		rc := cfg
		rc.workload, rc.seed, rc.seconds, rc.setups, rc.record = name, defaultSeed, 0, 1, true
		rep, err := run(ctx, rc)
		if err != nil {
			return err
		}
		if !rep.result.Correct {
			return fmt.Errorf("%s: output checks failed; not recording", name)
		}
		if book == nil {
			book = rep.book
		} else {
			for k, v := range rep.book.warm {
				book.warm[k] = v
			}
		}
	}
	return book.save(path)
}

// smokeMain runs one round of every workload, end to end and traced,
// under the default seed (so the stored digests are checked), and
// checks that every metric of the benchmark definition prints with its
// unit and that every output check passed.
func smokeMain(ctx context.Context, cfg runConfig, specPath string) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	var problems []string
	for _, name := range workloads {
		for _, traced := range []bool{false, true} {
			rc := cfg
			rc.workload, rc.seed, rc.seconds, rc.setups, rc.trace = name, defaultSeed, 0, 1, traced
			rep, err := run(ctx, rc)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if err := printReport(rep); err != nil {
				return err
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res := rep.result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				problems = append(problems, fmt.Sprintf("%s trace=%v: %d of %d ops failed", name, traced, res.Failed, res.Attempted))
			}
			if len(res.Metrics) != len(want) {
				problems = append(problems, fmt.Sprintf("%s trace=%v: %d metrics, definition has %d", name, traced, len(res.Metrics), len(want)))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					problems = append(problems, fmt.Sprintf("%s trace=%v: metric %s missing or not in %s", name, traced, m.Name, m.Unit))
				}
			}
		}
	}
	if len(problems) > 0 {
		return errors.New("smoke: " + strings.Join(problems, "; "))
	}
	fmt.Fprintln(os.Stderr, "perfbench: smoke passed")
	return nil
}
