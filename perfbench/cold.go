package main

import (
	"encoding/json"
	"math/rand"
	"sync/atomic"
	"time"

	"pesto/internal/gen"
	"pesto/internal/service"
)

// cold-ladder: first-time plan requests (noCache) from one closed-loop
// client to one pestod handler, over every generator family at three
// sizes, each at the fallback and pipeline-dp budgets and, up to
// coldRefineMaxNodes, at the refine budget.
var coldSizes = []int{96, 250, 1000}

const (
	coldRefineMaxNodes = 250
	// coldReplicates is how many graphs of each family a seed draws at
	// each size. The slowest rungs set the latency tail, so several
	// draws keep one graph's luck from setting it. The 1000-node graphs
	// are drawn once, because their lower bounds dominate the oracle's
	// time, and sent coldReplicates times per pass instead, which keeps
	// every (family, size, budget) cell at the same weight in the mix.
	coldReplicates = 5
)

// coldRequest is one request of the cold-ladder mix.
type coldRequest struct {
	c    *planCase
	body []byte
}

// buildColdInputs returns the request mix and, for the traced run's
// layer replay, the first replicate of every (family, size).
func buildColdInputs(seed int64) ([]coldRequest, []replayInput, error) {
	var reqs []coldRequest
	var inputs []replayInput
	for _, n := range coldSizes {
		budgets, draws, sends := ladderBudgets, coldReplicates, 1
		if n > coldRefineMaxNodes {
			budgets, draws, sends = ladderBudgets[:2], 1, coldReplicates
		}
		for r := 0; r < draws; r++ {
			for i, fam := range gen.Families() {
				g, err := gen.Generate(gen.Config{Family: fam, Nodes: n, Seed: seed*1009 + int64(10*n+100000*r+i)})
				if err != nil {
					return nil, nil, err
				}
				if r == 0 {
					inputs = append(inputs, replayInput{g: g, budgets: budgets})
				}
				for _, b := range budgets {
					body, err := json.Marshal(service.PlaceRequest{
						Graph: g, Options: service.RequestOptions{BudgetMs: b, NoCache: true},
					})
					if err != nil {
						return nil, nil, err
					}
					for k := 0; k < sends; k++ {
						reqs = append(reqs, coldRequest{
							c:    &planCase{g: g, sys: twoGPUs(), budget: time.Duration(b) * time.Millisecond},
							body: body,
						})
					}
				}
			}
		}
	}
	// A seeded order interleaves sizes and rungs within a pass.
	rand.New(rand.NewSource(seed)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, inputs, nil
}

func runColdLadder(cfg runConfig) (*result, error) {
	type sut struct {
		reqs   []coldRequest
		inputs []replayInput
		srv    *service.Server
	}
	s, setup, err := timeSetup(setupReps(cfg), func() (sut, error) {
		reqs, inputs, err := buildColdInputs(cfg.seed)
		return sut{reqs, inputs, service.New(service.Config{})}, err
	}, func(sut) {})
	if err != nil {
		return nil, err
	}
	log := newResponseLog()
	var w memWriter
	var pos, attempted, failed atomic.Int64
	do := func(tr *tracer) op {
		return func(int) (float64, bool) {
			i := pos.Add(1) - 1
			key := int(i % int64(len(s.reqs)))
			r := s.reqs[key]
			status, body, hit := place(s.srv, &w, tr, i, "bench.request", r.body)
			attempted.Add(1)
			if status != 200 {
				failed.Add(1)
			} else {
				log.add(key, body, !hit)
			}
			return ms(r.c.budget), true
		}
	}

	lbs := newLBCache()
	rep := newLayerReport(lbs)
	res := &result{}
	if cfg.trace {
		tr := newTracer()
		// Each request runs untraced and then traced, so the overhead
		// compares the same solves.
		var base, traced loadStats
		for until := time.Now().Add(cfg.measure / 2); time.Now().Before(until); {
			i := pos.Load()
			base.add(closedLoop(1, time.Hour, limited(do(nil), 1)))
			pos.Store(i)
			traced.add(closedLoop(1, time.Hour, limited(do(tr), 1)))
		}
		res.set("bench.trace_overhead_pct", overheadPct(base, traced), "%")
		res.set("bench.sched_late_p99_ms", quantile(traced.late, 0.99), "ms")
		if err := rep.finishTraced(cfg, tr, s.inputs, cfg.measure/2, true, res); err != nil {
			return nil, err
		}
	} else {
		// Whole passes of the mix until the measured time is spent.
		// Each request's latency is its median over the passes, and
		// throughput and CPU per request are medians over passes, so a
		// slow stretch of the machine does not set them.
		n := len(s.reqs)
		perKey := make([][]float64, n)
		var throughput, cpuPerOp []float64
		for start := time.Now(); len(throughput) == 0 || time.Since(start) < cfg.measure; {
			cpu0 := cpuTime()
			st := closedLoop(1, time.Hour, limited(do(nil), n))
			cpu := cpuTime() - cpu0
			for j, l := range st.lat {
				perKey[j] = append(perKey[j], l)
			}
			throughput = append(throughput, float64(st.ops)/st.elapsed.Seconds())
			cpuPerOp = append(cpuPerOp, ms(cpu)/float64(st.ops))
		}
		var lat, use []float64
		for j, ls := range perKey {
			lat = append(lat, median(ls))
			use = append(use, median(ls)/ms(s.reqs[j].c.budget))
		}
		res.set("setup_s", setup, "s")
		res.set("latency_p50_ms", quantile(lat, 0.50), "ms")
		res.set("latency_p90_ms", quantile(lat, 0.90), "ms")
		res.set("latency_p99_ms", quantile(lat, 0.99), "ms")
		res.set("budget_use_p90", quantile(use, 0.90), "ratio")
		res.set("ops_per_s", median(throughput), "1/s")
		res.set("cpu_ms_per_op", median(cpuPerOp), "ms")
		res.set("peak_rss_mb", peakRSSMB(), "MiB")
	}
	v := log.check(oracleWorkers, func(key int) (*planCase, error) {
		c := s.reqs[key].c
		return c, lbs.fill(c)
	})
	v.merge(rep.check())
	return res.finish(attempted.Load(), failed.Load(), v, !cfg.trace)
}
