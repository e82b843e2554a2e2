package main

import (
	"encoding/json"
	"math/rand"
	"sync/atomic"
	"time"

	"pesto/internal/gen"
	"pesto/internal/service"
	"pesto/internal/sim"
)

// serve-zipf: serving traffic through a 3-replica fleet. A Zipf stream
// over a corpus larger than the replicas' caches mixes hits with
// evictions and refills on every ladder rung below the exact one.
const (
	zipfCorpus   = 1024
	zipfNodes    = 96
	zipfSkew     = 1.2
	zipfReplicas = 3
	zipfSeqLen   = 1 << 18
	// zipfWarmup requests fill the caches before any timed phase.
	zipfWarmup = 6000
	// zipfRate is the open-loop rate in requests per second, a sixteenth
	// of the ~1000/s two closed-loop clients sustain on two cores: at
	// 100/s and above, queueing behind refills let a 15% slower machine
	// raise p99 by a third or more.
	zipfRate = 60.0
	// clients bounds concurrent requests: one per core of the 2-core
	// machines the benchmark was tuned on.
	clients = 2
	// oracleWorkers checks served plans in parallel after timing ends.
	oracleWorkers = 2
)

// ladderBudgets are the per-request solve budgets in milliseconds, one
// per rung below the exact one: fallback, pipeline-dp and refine.
var ladderBudgets = []int64{90, 240, 1999}

// zipfBudget draws a corpus graph's budget: nine in ten at the
// interactive fallback budget, one in twenty each at pipeline-dp and
// refine. With one fill rung dominating the misses, p99 sits inside the
// fallback fills' latency at every miss rate the seeds produce, rather
// than on the step between two rungs.
func zipfBudget(rng *rand.Rand) int64 {
	switch x := rng.Float64(); {
	case x < 0.9:
		return ladderBudgets[0]
	case x < 0.95:
		return ladderBudgets[1]
	default:
		return ladderBudgets[2]
	}
}

// twoGPUs is the system every request asks for (the server default).
func twoGPUs() sim.System { return sim.NewSystem(2, 16<<30) }

// zipfInputs is the generated traffic: corpus graphs with a budget and
// an encoded request body each, and the access sequence over them.
type zipfInputs struct {
	cases  []*planCase
	bodies [][]byte
	seq    []int
}

func buildZipfInputs(seed int64) (*zipfInputs, error) {
	trace, err := gen.NewTrace(gen.TraceConfig{
		Corpus: zipfCorpus, Requests: zipfSeqLen, Skew: zipfSkew, Seed: seed, Nodes: zipfNodes,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5e7b))
	in := &zipfInputs{seq: trace.Seq}
	for _, cfg := range trace.Configs {
		g, err := gen.Generate(cfg)
		if err != nil {
			return nil, err
		}
		budget := zipfBudget(rng)
		body, err := json.Marshal(service.PlaceRequest{Graph: g, Options: service.RequestOptions{BudgetMs: budget}})
		if err != nil {
			return nil, err
		}
		in.cases = append(in.cases, &planCase{g: g, sys: twoGPUs(), budget: time.Duration(budget) * time.Millisecond})
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// zipfRun is one serve-zipf run's state.
type zipfRun struct {
	in        *zipfInputs
	fl        *servingFleet
	log       *responseLog
	writers   [clients]memWriter
	pos       atomic.Int64 // next index into the access sequence
	attempted atomic.Int64
	failed    atomic.Int64
	hits      atomic.Int64
}

// op returns the load generator's request function; tr nil sends the
// requests untraced. limit > 0 stops the clients after that many
// requests in total.
func (z *zipfRun) op(tr *tracer, limit int64) op {
	return func(c int) (float64, bool) {
		i := z.pos.Add(1) - 1
		if limit > 0 && i >= limit {
			return 0, false
		}
		key := z.in.seq[i%int64(len(z.in.seq))]
		status, body, hit := place(z.fl.router, &z.writers[c], tr, i, "fleet.router", z.in.bodies[key])
		z.attempted.Add(1)
		if status != 200 {
			z.failed.Add(1)
		} else {
			z.log.add(key, body, !hit)
			if hit {
				z.hits.Add(1)
			}
		}
		return float64(z.in.cases[key].budget) / float64(time.Millisecond), true
	}
}

func runServeZipf(cfg runConfig) (*result, error) {
	type sut struct {
		in *zipfInputs
		fl *servingFleet
	}
	s, setup, err := timeSetup(setupReps(cfg), func() (sut, error) {
		in, err := buildZipfInputs(cfg.seed)
		if err != nil {
			return sut{}, err
		}
		fl, err := newServingFleet(zipfReplicas, cfg.seed)
		return sut{in, fl}, err
	}, func(s sut) { s.fl.close() })
	if err != nil {
		return nil, err
	}
	z := &zipfRun{in: s.in, fl: s.fl, log: newResponseLog()}
	defer z.fl.close()
	lbs := newLBCache()
	rep := newLayerReport(lbs)

	closedLoop(clients, time.Hour, z.op(nil, zipfWarmup))
	res := &result{}
	if cfg.trace {
		if err := z.traced(cfg, rep, res); err != nil {
			return nil, err
		}
	} else {
		m := z.measure(cfg.measure)
		res.set("setup_s", setup, "s")
		res.set("latency_p50_ms", quantile(m.open.lat, 0.50), "ms")
		res.set("latency_p90_ms", quantile(m.open.lat, 0.90), "ms")
		res.set("latency_p99_ms", quantile(m.open.lat, 0.99), "ms")
		res.set("budget_use_p90", quantile(m.open.budgetUse, 0.90), "ratio")
		res.set("ops_per_s", median(m.throughput), "1/s")
		res.set("cpu_ms_per_op", median(m.cpuPerOp), "ms")
		res.set("peak_rss_mb", peakRSSMB(), "MiB")
	}
	z.fl.close()
	v := z.log.check(oracleWorkers, func(key int) (*planCase, error) {
		c := z.in.cases[key]
		return c, lbs.fill(c)
	})
	v.merge(rep.check())
	return res.finish(z.attempted.Load(), z.failed.Load(), v, !cfg.trace)
}

// zipfWindows is how many open-loop and closed-loop windows alternate
// in the measured phase, so both loops see the same machine conditions.
const zipfWindows = 10

// zipfMeasure is what serve-zipf's measured phase observed: the pooled
// open-loop samples, and per window pair the closed-loop throughput and
// the CPU time per request.
type zipfMeasure struct {
	open                 loadStats
	throughput, cpuPerOp []float64
}

// measure alternates open-loop and closed-loop windows for d in total,
// three quarters of it open loop: the p99 needs the samples.
// Latency percentiles come from the pooled open-loop samples;
// throughput and CPU per request are medians over the windows, which
// keeps a few seconds of a slow machine from setting them.
func (z *zipfRun) measure(d time.Duration) zipfMeasure {
	var m zipfMeasure
	window := d / (4 * zipfWindows)
	for w := 0; w < zipfWindows; w++ {
		cpu0 := cpuTime()
		open := openLoop(clients, zipfRate, 3*window, z.op(nil, 0))
		closed := closedLoop(clients, window, z.op(nil, 0))
		cpu := cpuTime() - cpu0
		m.open.lat = append(m.open.lat, open.lat...)
		m.open.budgetUse = append(m.open.budgetUse, open.budgetUse...)
		m.throughput = append(m.throughput, float64(closed.ops)/closed.elapsed.Seconds())
		m.cpuPerOp = append(m.cpuPerOp, ms(cpu)/float64(open.ops+closed.ops))
	}
	return m
}

// traced runs serve-zipf's traced phases: the closed loop alternating
// untraced and traced chunks (the tracing overhead), the open loop
// traced (router, hit and fill spans; generator lateness), then the
// layer replay of the hottest corpus graphs.
func (z *zipfRun) traced(cfg runConfig, rep *layerReport, res *result) error {
	tr := newTracer()
	hits0, att0 := z.hits.Load(), z.attempted.Load()
	_, ev0 := z.fl.cacheStats()
	var base, traced loadStats
	for until := time.Now().Add(cfg.measure / 2); time.Now().Before(until); {
		base.add(closedLoop(clients, time.Hour, z.op(nil, z.pos.Load()+overheadChunk)))
		traced.add(closedLoop(clients, time.Hour, z.op(tr, z.pos.Load()+overheadChunk)))
	}
	open := openLoop(clients, zipfRate, cfg.measure/4, z.op(tr, 0))
	_, ev1 := z.fl.cacheStats()
	retries, hedges, failovers, _ := z.fl.router.Stats()
	res.set("bench.trace_overhead_pct", overheadPct(base, traced), "%")
	res.set("bench.sched_late_p99_ms", quantile(open.late, 0.99), "ms")
	res.set("service.cache_hit_ratio", float64(z.hits.Load()-hits0)/float64(z.attempted.Load()-att0), "ratio")
	res.set("service.cache_evictions", float64(ev1-ev0), "count")
	res.set("service.rejected", float64(z.fl.rejected()), "count")
	res.set("fleet.retries", float64(retries), "count")
	res.set("fleet.hedges", float64(hedges), "count")
	res.set("fleet.failovers", float64(failovers), "count")
	z.fl.close()

	var inputs []replayInput
	for key := 0; key < replayGraphs; key++ {
		inputs = append(inputs, replayInput{g: z.in.cases[key].g, budgets: ladderBudgets})
	}
	return rep.finishTraced(cfg, tr, inputs, cfg.measure/4, false, res)
}

// overheadChunk is how many requests each untraced or traced chunk of
// serve-zipf's overhead phase sends.
const overheadChunk = 500
