package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"pesto"
	"pesto/internal/baselines"
	"pesto/internal/coarsen"
	"pesto/internal/graph"
	"pesto/internal/obs"
	"pesto/internal/pipeline"
	"pesto/internal/placement"
	"pesto/internal/service"
	"pesto/internal/sim"
	"pesto/internal/verify"
)

// The traced run's layer replay sends a workload's own graphs through
// each layer's public function, one span per call, so every per-layer
// metric is measured on every workload's inputs.

const (
	// replayGraphs is how many of serve-zipf's hottest corpus graphs the
	// layer replay uses.
	replayGraphs = 8
	// coarsenTarget is the coarse-graph size the ladder rungs coarsen to
	// (placement.Options' default).
	coarsenTarget = 192
	// exactMaxNodes caps the branch and bound of the exact rung, so its
	// search ends at the same point on every machine; exactTimeLimit is
	// generous enough never to cut it first.
	exactMaxNodes  = 20
	exactTimeLimit = 60 * time.Second
)

// replayInput is one graph and the budgets it is replayed at.
type replayInput struct {
	g       *graph.Graph
	budgets []int64
}

// rungSpans names the span of a placement.Place call by the rung its
// budget selects.
var rungSpans = map[placement.Stage]string{
	placement.StageFallback:   "placement.fallback",
	placement.StagePipelineDP: "placement.pipeline_dp",
	placement.StageRefine:     "placement.refine",
}

// spanMetrics maps span names to the per-layer metric reporting the
// median self time of their calls.
var spanMetrics = []struct {
	span, metric, unit string
}{
	{"service.decode", "service.decode_us", "us"},
	{"graph.fingerprint", "graph.fingerprint_us", "us"},
	{"service.encode", "service.encode_us", "us"},
	{"fleet.router", "fleet.router_overhead_us", "us"},
	{"service.hit", "service.hit_us", "us"},
	{"service.fill", "service.fill_ms", "ms"},
	{"placement.fallback", "placement.fallback_ms", "ms"},
	{"placement.pipeline_dp", "placement.pipeline_dp_ms", "ms"},
	{"placement.refine", "placement.refine_ms", "ms"},
	{"placement.exact", "placement.exact_ms", "ms"},
	{"coarsen", "coarsen.ms", "ms"},
	{"baselines.best_baechi", "baselines.best_baechi_ms", "ms"},
	{"baselines.heft", "baselines.heft_ms", "ms"},
	{"pipeline.partition_dp", "pipeline.partition_dp_ms", "ms"},
	{"sim.run", "sim.run_us", "us"},
	{"verify.check", "verify.check_ms", "ms"},
}

// exactReplay runs the exact rung through the pesto.Place facade, the
// CLI's -ilp-max-nodes path, as a placement.exact span, and reports its
// solver counters and model size. The node cap, not the clock, ends the
// branch and bound, so the work done does not depend on machine speed.
func exactReplay(tr *tracer, req int64, g *graph.Graph, sys sim.System, res *result) error {
	rec := obs.NewRecorder()
	ctx := obs.Into(context.Background(), rec)
	root := tr.begin(req, 0, "bench.replay")
	id := tr.begin(req, root, "placement.exact")
	pr, err := pesto.Place(ctx, g, sys, placement.Options{ILPMaxNodes: exactMaxNodes, ILPTimeLimit: exactTimeLimit})
	tr.end(id, "")
	tr.end(root, "")
	if err != nil {
		return fmt.Errorf("exact replay: %w", err)
	}
	solves, pivots := rec.Counter("lp.solves"), rec.Counter("lp.pivots")
	hits, misses := rec.Counter("lp.warmstart.hits"), rec.Counter("lp.warmstart.misses")
	res.set("ilp.nodes", float64(rec.Counter("ilp.nodes")), "count")
	res.set("ilp.gap", pr.Gap, "ratio")
	res.set("ilp.model_rows", float64(pr.LPRows), "count")
	res.set("ilp.model_vars", float64(pr.LPVars), "count")
	res.set("lp.solves", float64(solves), "count")
	res.set("lp.pivots", float64(pivots), "count")
	res.set("lp.pivots_per_solve", ratio(pivots, solves), "ratio")
	res.set("lp.warmstart_hit_ratio", ratio(hits, hits+misses), "ratio")
	return nil
}

// layerReport collects what the traced run measures outside span
// durations: allocation counts, sizes, solver and serving counters.
type layerReport struct {
	decodeAllocs, simAllocs, coarseNodes, refineRounds []float64
	log                                                *responseLog
	cases                                              []*planCase
	lbs                                                *lbCache
}

func newLayerReport(lbs *lbCache) *layerReport {
	return &layerReport{log: newResponseLog(), lbs: lbs}
}

// finishTraced replays inputs through the layers for d, reports every
// per-layer metric and writes the spans out. serving adds the serving
// replay, for workloads whose own traffic does not pass the fleet.
func (rep *layerReport) finishTraced(cfg runConfig, tr *tracer, inputs []replayInput, d time.Duration, serving bool, res *result) error {
	if err := rep.replay(tr, inputs, d, serving, res); err != nil {
		return err
	}
	if err := rep.report(tr, res); err != nil {
		return err
	}
	return tr.write(cfg.outDir, cfg.name, cfg.seed)
}

// replay sends inputs through the layers: once through a fresh serving
// fleet (fill, then hit) when serving is set, the second input once
// through the capped exact rung (the first is a chain, which the root
// LP settles), then every input through the other layer calls, pass
// after pass, until d has elapsed.
func (rep *layerReport) replay(tr *tracer, inputs []replayInput, d time.Duration, serving bool, res *result) error {
	until := time.Now().Add(d)
	sys := twoGPUs()
	req := int64(1) << 40 // replay request IDs never collide with a workload's
	if serving {
		if err := rep.servingReplay(tr, &req, inputs, res); err != nil {
			return err
		}
	}
	if err := exactReplay(tr, req, inputs[1].g, sys, res); err != nil {
		return err
	}
	req++
	for pass := 0; pass == 0 || time.Now().Before(until); pass++ {
		for _, in := range inputs {
			if pass > 0 && !time.Now().Before(until) {
				break
			}
			if err := rep.replayOne(tr, req, in, sys); err != nil {
				return err
			}
			req++
		}
	}
	return nil
}

// replayOne times one graph through decode, fingerprint, the ladder
// rung of each budget, encode, coarsen, the baselines, the pipeline DP,
// the simulator and the verifier.
func (rep *layerReport) replayOne(tr *tracer, req int64, in replayInput, sys sim.System) error {
	root := tr.begin(req, 0, "bench.replay")
	defer tr.end(root, "")
	var plan sim.Plan
	for _, b := range in.budgets {
		body, err := json.Marshal(service.PlaceRequest{Graph: in.g, Options: service.RequestOptions{BudgetMs: b}})
		if err != nil {
			return err
		}
		var decoded *service.PlaceRequest
		allocs := countAllocs(func() {
			id := tr.begin(req, root, "service.decode")
			decoded, err = service.DecodePlaceRequest(bytes.NewReader(body), 0, 0)
			tr.end(id, "")
		})
		if err != nil {
			return fmt.Errorf("decode replay: %w", err)
		}
		rep.decodeAllocs = append(rep.decodeAllocs, allocs)

		id := tr.begin(req, root, "graph.fingerprint")
		fp := decoded.Graph.Fingerprint()
		tr.end(id, "")

		budget := time.Duration(b) * time.Millisecond
		stage := placement.StageForDeadline(budget)
		rec := obs.NewRecorder()
		ctx := obs.Into(context.Background(), rec)
		id = tr.begin(req, root, rungSpans[stage])
		res, err := placement.Place(ctx, decoded.Graph, sys, placement.Options{
			ILPTimeLimit: budget, StartStage: stage, Verify: true,
		})
		tr.end(id, "")
		if err != nil {
			return fmt.Errorf("%v replay: %w", stage, err)
		}
		if stage == placement.StageRefine {
			rep.refineRounds = append(rep.refineRounds, float64(rec.Counter("placement.refine.rounds")))
		}

		id = tr.begin(req, root, "service.encode")
		_, err = json.Marshal(service.PlaceResponse{
			Fingerprint: fmt.Sprintf("%x", fp),
			CacheKey:    fmt.Sprintf("%x", fp),
			Plan:        res.Plan,
			Stage:       res.Provenance.Stage.String(),
			MakespanNs:  int64(res.SimulatedMakespan),
			PredictedNs: int64(res.PredictedMakespan),
			Verified:    true,
		})
		tr.end(id, "")
		if err != nil {
			return err
		}
		plan = res.Plan
	}

	id := tr.begin(req, root, "coarsen")
	cres, err := coarsen.Coarsen(in.g, coarsen.Options{Target: coarsenTarget})
	tr.end(id, "")
	if err != nil {
		return fmt.Errorf("coarsen replay: %w", err)
	}
	rep.coarseNodes = append(rep.coarseNodes, float64(cres.Coarse.NumNodes()))

	id = tr.begin(req, root, "baselines.best_baechi")
	_, _, _, err = baselines.BestBaechi(in.g, sys)
	tr.end(id, "")
	if err != nil {
		return fmt.Errorf("baechi replay: %w", err)
	}
	id = tr.begin(req, root, "baselines.heft")
	_, err = baselines.HEFT(in.g, sys)
	tr.end(id, "")
	if err != nil {
		return fmt.Errorf("heft replay: %w", err)
	}

	id = tr.begin(req, root, "pipeline.partition_dp")
	_, err = pipeline.PartitionDP(cres.Coarse, sys, sys.GPUs(), -1)
	tr.end(id, "")
	if err != nil {
		return fmt.Errorf("pipeline dp replay: %w", err)
	}

	allocs := countAllocs(func() {
		id := tr.begin(req, root, "sim.run")
		_, err = sim.Run(in.g, sys, plan)
		tr.end(id, "")
	})
	if err != nil {
		return fmt.Errorf("sim replay: %w", err)
	}
	rep.simAllocs = append(rep.simAllocs, allocs)

	id = tr.begin(req, root, "verify.check")
	_, err = verify.Check(in.g, sys, plan)
	tr.end(id, "")
	if err != nil {
		return fmt.Errorf("verify replay: %w", err)
	}
	return nil
}

// countAllocs returns the heap allocations f made. The replay runs
// alone in the process, so other goroutines add little; the reported
// figure is a median over calls.
func countAllocs(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// servingReplay routes each (graph, budget) through a fresh 3-replica
// fleet twice, a fill and then a hit, and reports the serving counters.
// Its responses are held to the oracle with the rest of the run's.
func (rep *layerReport) servingReplay(tr *tracer, req *int64, inputs []replayInput, res *result) error {
	fl, err := newServingFleet(zipfReplicas, 1)
	if err != nil {
		return err
	}
	defer fl.close()
	var w memWriter
	var sent, hits int64
	for _, in := range inputs {
		for _, b := range in.budgets {
			body, err := json.Marshal(service.PlaceRequest{Graph: in.g, Options: service.RequestOptions{BudgetMs: b}})
			if err != nil {
				return err
			}
			key := len(rep.cases)
			rep.cases = append(rep.cases, &planCase{g: in.g, sys: twoGPUs(), budget: time.Duration(b) * time.Millisecond})
			for k := 0; k < 2; k++ {
				status, resp, hit := place(fl.router, &w, tr, *req, "fleet.router", body)
				sent++
				if status != 200 {
					return fmt.Errorf("serving replay: status %d", status)
				}
				rep.log.add(key, resp, !hit)
				if hit {
					hits++
				}
			}
			*req++
		}
	}
	_, evictions := fl.cacheStats()
	retries, hedges, failovers, _ := fl.router.Stats()
	res.set("service.cache_hit_ratio", float64(hits)/float64(sent), "ratio")
	res.set("service.cache_evictions", float64(evictions), "count")
	res.set("service.rejected", float64(fl.rejected()), "count")
	res.set("fleet.retries", float64(retries), "count")
	res.set("fleet.hedges", float64(hedges), "count")
	res.set("fleet.failovers", float64(failovers), "count")
	return nil
}

// check holds the serving replay's responses to the oracle.
func (rep *layerReport) check() verdict {
	return rep.log.check(oracleWorkers, func(key int) (*planCase, error) {
		c := rep.cases[key]
		return c, rep.lbs.fill(c)
	})
}

// report sets the per-layer metrics the replay leaves: median self
// time per layer span and the replay's counts.
func (rep *layerReport) report(tr *tracer, res *result) error {
	self := tr.selfTimes()
	for _, m := range spanMetrics {
		xs := self[m.span]
		if len(xs) == 0 {
			return fmt.Errorf("traced run recorded no %s span", m.span)
		}
		scale := 1e3 // ns → µs
		if m.unit == "ms" {
			scale = 1e6
		}
		res.set(m.metric, median(xs)/scale, m.unit)
	}
	res.set("service.decode_allocs", median(rep.decodeAllocs), "count")
	res.set("sim.run_allocs", median(rep.simAllocs), "count")
	res.set("coarsen.coarse_nodes", median(rep.coarseNodes), "count")
	res.set("placement.refine_rounds", median(rep.refineRounds), "count")
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
