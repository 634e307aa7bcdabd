package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; BENCHMARK.json lists
// the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
	{"light_p50_ms", "ms"},
	{"heavy_p50_ms", "ms"},
}

var (
	faultModels = []string{"stuck-at", "bridging", "transition"}
	routes      = []string{"analyze", "pipeline", "sharded", "local", "validate"}
)

// perLayer are the metrics of a traced run, named after the modules
// whose public calls they time.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"optimize.climb_ms", "ms"},
		{"optimize.evaluations", "count"},
		{"optimize.us_per_eval", "us"},
		{"optimize.share", "ratio"},
		{"core.analyze_ms", "ms"},
		{"testlen.ms", "ms"},
		{"faultsim.sim_ms", "ms"},
		{"faultsim.share", "ratio"},
	}
	for _, m := range faultModels {
		defs = append(defs, metricDef{"faultsim." + m + ".w1_ms", "ms"}, metricDef{"faultsim." + m + ".w8_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"faultsim.w8_over_w1", "ratio"},
		metricDef{"faultsim.patterns_per_s", "1/s"},
		metricDef{"bist.ms", "ms"})
	for _, r := range routes {
		defs = append(defs, metricDef{"server." + r + ".p50_ms", "ms"}, metricDef{"server." + r + ".p90_ms", "ms"})
	}
	return append(defs,
		metricDef{"netlist.parse_ms", "ms"},
		metricDef{"artifact.intern_ms", "ms"},
		metricDef{"shard.sharded_over_local", "ratio"},
		metricDef{"shard.shards_per_run", "count"},
		metricDef{"shard.retries", "count"},
		metricDef{"shard.hedges", "count"},
		metricDef{"shard.local_fallbacks", "count"},
		metricDef{"server.analyze_passes_per_req", "ratio"},
		metricDef{"coalesce.join_ratio", "ratio"},
		metricDef{"batch.mean_size", "count"},
		metricDef{"server.rejected", "count"},
		metricDef{"bdd.exact_ms", "ms"},
		metricDef{"artifact.builds_timed", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// counterMetrics derives the sharing, admission and shard metrics from
// the counter deltas over the timed phase.  The library workloads have
// no counters and get zeros, except artifact.builds_timed.
func counterMetrics(d map[string]float64, buildsTimed float64) map[string]float64 {
	return map[string]float64{
		"server.analyze_passes_per_req": ratio(d["analyze_passes"], d["analyze_requests"]),
		"coalesce.join_ratio":           ratio(d["coalesce_joins"], d["coalesce_leads"]+d["coalesce_joins"]),
		"batch.mean_size":               ratio(d["batch_requests"], d["batch_flushes"]),
		"server.rejected":               d["rejected"],
		"shard.shards_per_run":          ratio(d["shards"], d["shard_runs"]),
		"shard.retries":                 d["shard_retries"],
		"shard.hedges":                  d["shard_hedges"],
		"shard.local_fallbacks":         d["local_fallbacks"],
		"artifact.builds_timed":         buildsTimed,
	}
}

// layerMetrics computes the per-layer metrics of a traced run from its
// spans, the latency of its traced calls (trec) against the untraced
// first half (rec), and the counter metrics.
func layerMetrics(ls layerStats, rec, trec *recorder, counters map[string]float64) map[string]float64 {
	v := map[string]float64{}
	for k, x := range counters {
		v[k] = x
	}
	ops := float64(ls.ops)
	opDur := float64(ls.opDur)
	climb, evals := ls.sum("optimize.climb")
	v["optimize.climb_ms"] = ratio(ms(climb), ops)
	v["optimize.evaluations"] = ratio(float64(evals), ops)
	v["optimize.us_per_eval"] = ratio(ms(climb)*1000, float64(evals))
	v["optimize.share"] = ratio(float64(climb), opDur)
	analyze, _ := ls.sum("core.analyze")
	v["core.analyze_ms"] = ratio(ms(analyze), ops)
	testlen, _ := ls.sum("testlen")
	v["testlen.ms"] = ratio(ms(testlen), ops)
	sim, patterns := ls.sum("faultsim.sim/")
	v["faultsim.sim_ms"] = ratio(ms(sim), ops)
	v["faultsim.share"] = ratio(float64(sim), opDur)
	v["faultsim.patterns_per_s"] = ratio(float64(patterns), sim.Seconds())
	var w1, w8 time.Duration
	for _, m := range faultModels {
		for _, w := range []int{1, 8} {
			name := fmt.Sprintf("faultsim.sim/%s/w%d", m, w)
			v[fmt.Sprintf("faultsim.%s.w%d_ms", m, w)] = ratio(ms(ls.self[name]), float64(ls.calls[name]))
		}
		w1 += ls.self["faultsim.sim/"+m+"/w1"]
		w8 += ls.self["faultsim.sim/"+m+"/w8"]
	}
	if w8 > 0 {
		v["faultsim.w8_over_w1"] = ratio(float64(w8), float64(w1))
	}
	bist, _ := ls.sum("bist")
	v["bist.ms"] = ratio(ms(bist), ops)
	for _, name := range []string{"netlist.parse", "artifact.intern", "bdd.exact"} {
		v[name+"_ms"] = ratio(ms(ls.self[name]), float64(ls.calls[name]))
	}

	byRoute := trec.byRoute()
	for _, r := range routes {
		v["server."+r+".p50_ms"] = median(byRoute[r])
		v["server."+r+".p90_ms"] = quantile(byRoute[r], 0.9)
	}
	v["shard.sharded_over_local"] = ratio(median(byRoute["sharded"]), median(byRoute["local"]))

	// Tracing overhead: per op kind, traced over untraced median
	// latency, averaged geometrically.
	plain, traced := rec.byKind(), trec.byKind()
	var rs []float64
	for kind, xs := range traced {
		if base := median(plain[kind]); base > 0 {
			rs = append(rs, median(xs)/base)
		}
	}
	if len(rs) > 0 {
		v["trace.overhead_frac"] = geomean(rs) - 1
	}
	return v
}

// tails reports, per route (or op kind of a library workload),
// the sample count, p50, p90, and p99 where at least ten samples lie
// beyond it.
func tails(rec *recorder) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for route, xs := range rec.byRoute() {
		t := map[string]float64{"n": float64(len(xs)), "p50_ms": median(xs), "p90_ms": quantile(xs, 0.9)}
		if len(xs) >= 1000 {
			t["p99_ms"] = quantile(xs, 0.99)
		}
		out[route] = t
	}
	return out
}

// kindMedians returns the median latency of every op kind.
func kindMedians(rec *recorder) map[string]float64 {
	out := map[string]float64{}
	for kind, xs := range rec.byKind() {
		out[kind] = median(xs)
	}
	return out
}

// host describes the machine and build the run measured.
func host() map[string]any {
	h := map[string]any{
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": "unknown",
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		h["commit"] = c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h["commit"] = s.Value
			case "vcs.modified":
				h["modified"] = s.Value == "true"
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// invariants are the counters every run of a workload should repeat
// exactly, whatever its seed and length.
var invariants = []string{"server.analyze_passes_per_req", "shard.shards_per_run", "artifact.builds_timed"}

type ledgerEntry struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    bool               `json:"trace"`
	Counters map[string]float64 `json:"counters"`
}

// ledger appends this run's invariant counters to the run ledger in
// the output directory and returns a flag for each that differs from
// an earlier run of the same workload, or from its expected value.
func ledger(cfg runConfig, counters map[string]float64) ([]string, error) {
	var flags []string
	if b := counters["artifact.builds_timed"]; b != 0 {
		flags = append(flags, fmt.Sprintf("artifact.builds_timed = %v, expected 0", b))
	}
	if cfg.workload == "service" && counters["server.analyze_passes_per_req"] != 1 {
		flags = append(flags, fmt.Sprintf("server.analyze_passes_per_req = %v, expected 1", counters["server.analyze_passes_per_req"]))
	}
	path := filepath.Join(cfg.out, "perfbench-ledger.jsonl")
	b, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var e ledgerEntry
		if line == "" || json.Unmarshal([]byte(line), &e) != nil || e.Workload != cfg.workload {
			continue
		}
		for _, k := range invariants {
			if prev, ok := e.Counters[k]; ok && prev != counters[k] {
				flags = append(flags, fmt.Sprintf("%s = %v differs from %v in an earlier run (seed %d)", k, counters[k], prev, e.Seed))
			}
		}
	}
	entry := ledgerEntry{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Counters: map[string]float64{}}
	for _, k := range invariants {
		entry.Counters[k] = counters[k]
	}
	line, err := json.Marshal(entry)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	return flags, f.Close()
}
