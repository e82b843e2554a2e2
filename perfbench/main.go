// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against the public entry points — the pestod handler
// (internal/service) and the in-process fleet router (internal/fleet)
// — checks every served plan with a timing-independent oracle, and
// prints one JSON result line.
//
//	perfbench -workload serve-zipf -seed 1 -seconds 30 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 it replays the workload's inputs through each layer's public
// functions under a span tracer and carries the per-layer metrics.
// See README.md for the workloads, the metrics and what each per-layer
// metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	measure time.Duration
	trace   bool
	root    string // repository root, for code.prod_lines
	outDir  string // where the traced run writes its spans
	name    string
}

// workloads maps each -workload name to its driver.
var workloads = map[string]func(runConfig) (*result, error){
	"serve-zipf":  runServeZipf,
	"cold-ladder": runColdLadder,
}

// errIncorrect marks a run whose outputs failed the oracle; the result
// line is still printed so the failures can be inspected.
var errIncorrect = errors.New("served output failed the oracle")

func main() {
	name := flag.String("workload", "", "workload to run: serve-zipf or cold-ladder")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	root := flag.String("root", ".", "repository root, for the production line count")
	outDir := flag.String("out", ".bench_build/trace", "directory the traced run writes its spans to")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		trace:   *traceFlag == 1,
		root:    *root,
		outDir:  *outDir,
		name:    *name,
	}
	res, err := run(cfg)
	if cfg.trace && err == nil {
		var lines int
		if lines, err = prodLines(cfg.root); err == nil {
			res.set("code.prod_lines", float64(lines), "count")
		}
	}
	emit(res, err)
}

// emit prints the result line and exits: 0 for a correct run, 1 for a
// run whose outputs failed the oracle or that could not complete.
func emit(res *result, err error) {
	if res != nil {
		line, merr := json.Marshal(res)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", merr)
			os.Exit(1)
		}
		if _, werr := os.Stdout.Write(append(line, '\n')); werr != nil {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// timeSetup builds the system under test reps times, and then more
// times while the builds so far took under setupMinTotal (at most
// setupMaxReps), and returns the median build time and the last
// instance built. Each earlier instance is released and the heap
// collected before the next, so peak memory reflects one instance.
func timeSetup[T any](reps int, build func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var times []float64
	var total time.Duration
	for i := 0; i < reps || (total < setupMinTotal && i < setupMaxReps); i++ {
		if i > 0 {
			release(last)
			var zero T
			last = zero
			runtime.GC()
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		d := time.Since(start)
		total += d
		times = append(times, d.Seconds())
		last = v
	}
	return last, median(times), nil
}

// Set-up timing repeats cheap builds until their median is stable.
const (
	setupMinTotal = 250 * time.Millisecond
	setupMaxReps  = 50
)

// setupReps is how many times a run at least builds its system under
// test to time set-up; the traced run, which does not report set-up
// time, builds it once.
func setupReps(cfg runConfig) int {
	if cfg.trace {
		return 1
	}
	return 3
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle of xs (the mean of the two middles for an
// even count); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified. It is 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// finish fills the result's counts and correctness: failed counts
// refused or failed requests plus those whose output failed the oracle,
// and only an oracle failure makes the run incorrect. End-to-end runs
// also report the success rate and the makespan ratio.
func (r *result) finish(attempted, failed int64, v verdict, endToEnd bool) (*result, error) {
	r.Attempted, r.Failed = attempted, failed+v.failed
	r.Correct = v.failed == 0 && v.firstErr == nil
	if endToEnd {
		r.set("success_rate", 1-float64(r.Failed)/float64(attempted), "ratio")
		r.set("makespan_ratio", geomean(v.ratios), "ratio")
	}
	if !r.Correct {
		return r, fmt.Errorf("%w: %d requests, first: %v", errIncorrect, v.failed, v.firstErr)
	}
	return r, nil
}

// geomean is the geometric mean of m's values.
func geomean(m map[int]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	var sum float64
	for _, x := range m {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(m)))
}
