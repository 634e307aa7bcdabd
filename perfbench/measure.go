package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// call is one operation of a workload: a library call or one HTTP
// request.  do performs it and checks its output; a non-nil error
// counts the op as failed.
type call struct {
	// kind groups latency samples: one kind per distinct op shape,
	// e.g. "c432" or "analyze/alu".  For the service the part before
	// the first "/" is the route.
	kind string
	// class is "light" or "heavy"; see the README's workload table.
	class string
	do    func(ctx context.Context) error
}

// step holds one call per client.  The calls of a step run
// concurrently and the next step starts when all of them have returned
// (lockstep), so sharing between clients never depends on timing.
type step []call

type sample struct {
	kind, class string
	ms          float64
	round       int // index of the sample's round in recorder.rounds
}

// roundStat is the completed ops, wall time and process CPU time of
// one round, and the calibration taken before it.
type roundStat struct {
	ops       int
	wall, cpu time.Duration
	cal       []time.Duration
	calClean  bool
}

// recorder collects the latency and outcome of every call of a phase,
// and the totals of every round.
type recorder struct {
	mu        sync.Mutex
	samples   []sample
	attempted int
	failed    int
	errs      []string
	rounds    []roundStat
	cur       int // index of the round running now
}

// completed returns the number of calls that succeeded so far.
func (r *recorder) completed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// calibrations returns every clean calibration timing of the phase,
// or every timing when none was clean, and the number of rounds whose
// calibration was not clean.
func (r *recorder) calibrations() (cal []time.Duration, dirty int) {
	var all []time.Duration
	for _, rs := range r.rounds {
		all = append(all, rs.cal...)
		if rs.calClean {
			cal = append(cal, rs.cal...)
		} else {
			dirty++
		}
	}
	if cal == nil {
		cal = all
	}
	return cal, dirty
}

// roundScales returns the host scale of every round, from the
// calibration taken before it; a round whose calibration stayed dirty
// gets the scale of the whole phase.
func (r *recorder) roundScales() []float64 {
	cal, _ := r.calibrations()
	phase := hostScale(cal)
	out := make([]float64, len(r.rounds))
	for i, rs := range r.rounds {
		out[i] = phase
		if rs.calClean {
			out[i] = hostScale(rs.cal)
		}
	}
	return out
}

// perRound returns the median over rounds of f(round i).
func (r *recorder) perRound(f func(i int, rs roundStat) float64) float64 {
	xs := make([]float64, len(r.rounds))
	for i, rs := range r.rounds {
		xs[i] = f(i, rs)
	}
	return median(xs)
}

func (r *recorder) add(c call, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(fmt.Errorf("%s: %w", c.kind, err))
		return
	}
	r.samples = append(r.samples, sample{c.kind, c.class, float64(d) / float64(time.Millisecond), r.cur})
}

// fail counts a failure found after the call returned (a post-run
// output check).
func (r *recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(err)
}

func (r *recorder) failLocked(err error) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, err.Error())
	}
}

// byKind groups the latency samples (ms) by op kind.
func (r *recorder) byKind() map[string][]float64 {
	m := map[string][]float64{}
	for _, s := range r.samples {
		m[s.kind] = append(m[s.kind], s.ms)
	}
	return m
}

// byRoute groups the latency samples (ms) by the kind's route prefix.
func (r *recorder) byRoute() map[string][]float64 {
	m := map[string][]float64{}
	for _, s := range r.samples {
		route, _, _ := strings.Cut(s.kind, "/")
		m[route] = append(m[route], s.ms)
	}
	return m
}

// classP50 is the geometric mean, over the op kinds of one class, of
// each kind's median latency, every sample multiplied by scale of its
// round.  Taking the median per kind keeps it off the boundary between
// kinds of different cost, and the geometric mean weighs every kind
// equally whatever the seeded mix.
func (r *recorder) classP50(class string, scale func(round int) float64) float64 {
	kinds := map[string][]float64{}
	for _, s := range r.samples {
		if s.class == class {
			kinds[s.kind] = append(kinds[s.kind], s.ms*scale(s.round))
		}
	}
	var meds []float64
	for _, xs := range kinds {
		meds = append(meds, median(xs))
	}
	return geomean(meds)
}

// runStep runs the calls of one step on one goroutine each and waits
// for all of them.
func runStep(ctx context.Context, st step, rec *recorder, tr *tracer) {
	if len(st) == 1 {
		runCall(ctx, st[0], rec, tr)
		return
	}
	var wg sync.WaitGroup
	for _, c := range st {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runCall(ctx, c, rec, tr)
		}()
	}
	wg.Wait()
}

// runCall times one call; with a tracer it becomes the root span of a
// new op, and the call's own spans nest under it.
func runCall(ctx context.Context, c call, rec *recorder, tr *tracer) {
	var root int
	if tr != nil {
		ctx, root = tr.startOp(ctx)
	}
	start := time.Now()
	err := c.do(ctx)
	d := time.Since(start)
	if tr != nil {
		tr.end(root, 0)
	}
	rec.add(c, d, err)
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive xs; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// digestJSON hashes v's JSON encoding exactly as the server writes a
// response body (json.Encoder, trailing newline), so a library result
// and a response body of the same value hash alike.
func digestJSON(v any) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// calRef is the calibration kernel's time on the reference host, a
// 2-CPU container on which it took about 4 ms.
const calRef = 4 * time.Millisecond

// hostScale returns calRef over the median calibration timing: below 1
// on a host running slower than the reference.  Multiplying a time by
// it (or dividing a rate) scales the figure to the reference speed.
func hostScale(cal []time.Duration) float64 {
	xs := make([]float64, len(cal))
	for i, d := range cal {
		xs[i] = float64(d)
	}
	return ratio(float64(calRef), median(xs))
}

// calibrate times a fixed single-threaded kernel owned by the
// benchmark: pseudo-random reads and writes over a 256 KiB table with
// a log1p each, like the evaluator's inner loops.  It measures the
// host's speed at that moment, independent of the program under test.
func calibrate(sink *float64) time.Duration {
	const n = 1 << 15
	buf := make([]float64, n)
	start := time.Now()
	x, s := uint64(88172645463325252), 0.0
	for i := 0; i < 1<<17; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (n - 1)
		buf[j] = buf[j]*0.5 + math.Log1p(float64(x>>11)*0x1p-53)
		s += buf[(j*7)&(n-1)]
	}
	d := time.Since(start)
	*sink = s // keeps the loop from being optimized away
	return d
}

// Linux's CPU-time clocks, which unlike getrusage count to the
// nanosecond, not the scheduler tick.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// clockCPU reads one of the CPU-time clocks.
func clockCPU(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// calibrateAll runs the calibration kernel on every CPU at once, three
// times, each kernel on a thread of its own.  It returns every timing,
// and the process CPU time spent meanwhile outside the kernel threads:
// the program's own background work and garbage collection, which
// would slow the kernel and flatter the scale.
func calibrateAll() (cal []time.Duration, foreign time.Duration) {
	n := runtime.GOMAXPROCS(0)
	cal = make([]time.Duration, 3*n)
	kernel := make([]time.Duration, 3*n)
	sinks := make([]float64, 3*n)
	proc := clockCPU(clockProcessCPU)
	for rep := 0; rep < 3; rep++ {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				t := clockCPU(clockThreadCPU)
				cal[rep*n+i] = calibrate(&sinks[rep*n+i])
				kernel[rep*n+i] = clockCPU(clockThreadCPU) - t
			}()
		}
		wg.Wait()
	}
	foreign = clockCPU(clockProcessCPU) - proc
	for _, k := range kernel {
		foreign -= k
	}
	return cal, foreign
}

const (
	// calTries bounds the calibrations taken for one scale reading.
	calTries = 5
	// calForeign is the share of the kernel's time the process may
	// spend outside the kernel threads during a clean calibration.  The
	// runtime's own thread hand-offs cost up to 5%; a garbage
	// collection cycle takes a quarter of the CPUs.
	calForeign = 0.1
)

// calibrateClean repeats calibrateAll until the process spent at most
// calForeign of the kernel's time outside it, at most calTries times.
// It reports whether the returned calibration is clean; a dirty one
// means the program kept the CPUs busy between ops, and the run flags
// it.
func calibrateClean() (cal []time.Duration, clean bool) {
	for try := 0; try < calTries; try++ {
		var foreign time.Duration
		cal, foreign = calibrateAll()
		var total time.Duration
		for _, d := range cal {
			total += d
		}
		if float64(foreign) <= calForeign*float64(total) {
			return cal, true
		}
	}
	return cal, false
}
