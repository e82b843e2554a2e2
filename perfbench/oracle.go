package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pesto/internal/graph"
	"pesto/internal/placement"
	"pesto/internal/service"
	"pesto/internal/sim"
	"pesto/internal/verify"
)

// The output oracle never compares a served plan with a recorded one
// and never byte-compares two solves: a rung the clock can cut may
// legitimately answer differently on a slower machine. It checks what
// must hold on every machine instead — the plan passes the independent
// invariant checker, re-simulates to the makespan it claims, respects
// the LP lower bound, and came from the rung the budget selects — plus
// one byte identity the cache promises: a hit replays its fill.

// planCase is one request's inputs, as the oracle needs them.
type planCase struct {
	g      *graph.Graph
	fp     string // hex graph fingerprint
	sys    sim.System
	budget time.Duration
	lb     time.Duration // verify.LowerBound, computed outside timed phases
}

// checkPlan holds one plan to the oracle and returns its makespan.
func checkPlan(c *planCase, plan sim.Plan, claimed time.Duration, stage placement.Stage, degraded bool) (time.Duration, error) {
	if want := placement.StageForDeadline(c.budget); stage != want {
		return 0, fmt.Errorf("stage %v, budget %v selects %v", stage, c.budget, want)
	}
	if degraded {
		return 0, fmt.Errorf("degraded plan from %v", stage)
	}
	res, err := verify.Check(c.g, c.sys, plan)
	if err != nil {
		return 0, fmt.Errorf("verify: %w", err)
	}
	if res.Makespan != claimed {
		return 0, fmt.Errorf("re-simulated makespan %v, served %v", res.Makespan, claimed)
	}
	if res.Makespan < c.lb {
		return 0, fmt.Errorf("makespan %v below lower bound %v", res.Makespan, c.lb)
	}
	return res.Makespan, nil
}

// checkBody decodes one 200 response body of POST /v1/place and holds
// it to the oracle.
func checkBody(c *planCase, body []byte) (time.Duration, error) {
	var resp service.PlaceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decode response: %w", err)
	}
	if resp.Fingerprint != c.fp {
		return 0, fmt.Errorf("response for graph %.12s, sent %.12s", resp.Fingerprint, c.fp)
	}
	if !resp.Verified {
		return 0, fmt.Errorf("response not marked verified")
	}
	stage, err := parseStage(resp.Stage)
	if err != nil {
		return 0, err
	}
	return checkPlan(c, resp.Plan, time.Duration(resp.MakespanNs), stage, resp.Degraded)
}

func parseStage(name string) (placement.Stage, error) {
	for _, s := range []placement.Stage{placement.StageILP, placement.StageRefine, placement.StagePipelineDP, placement.StageFallback} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown stage %q", name)
}

func hexFP(g *graph.Graph) string {
	fp := g.Fingerprint()
	return hex.EncodeToString(fp[:])
}

// distinctBody is one response body seen for a key, with how many
// requests received it.
type distinctBody struct {
	body  []byte
	fill  bool // some request received it as a cache miss
	count int64
}

// responseLog records every 200 body per request key during a run,
// deduplicated so each distinct body is checked once afterwards. Logging
// costs a map lookup and a byte comparison per request.
type responseLog struct {
	mu     sync.Mutex
	bodies map[int][]*distinctBody
}

func newResponseLog() *responseLog {
	return &responseLog{bodies: make(map[int][]*distinctBody)}
}

// add records one body for key; fill marks a cache miss (or an
// uncached solve).
func (l *responseLog) add(key int, body []byte, fill bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, d := range l.bodies[key] {
		if bytes.Equal(d.body, body) {
			d.count++
			d.fill = d.fill || fill
			return
		}
	}
	l.bodies[key] = append(l.bodies[key], &distinctBody{body: append([]byte(nil), body...), fill: fill, count: 1})
}

// verdict is the oracle's account of a run's responses.
type verdict struct {
	failed   int64           // requests whose body failed
	ratios   map[int]float64 // key → makespan / lower bound of its plan
	firstErr error
}

// merge folds o's failures into v.
func (v *verdict) merge(o verdict) {
	v.failed += o.failed
	if v.firstErr == nil {
		v.firstErr = o.firstErr
	}
}

// check holds every distinct body to the oracle on workers goroutines.
// caseFor builds a key's planCase, lower bound included; it runs
// outside every timed phase. A body seen only as a cache hit must equal
// a body some request received as that key's fill.
func (l *responseLog) check(workers int, caseFor func(key int) (*planCase, error)) verdict {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]int, 0, len(l.bodies))
	for k := range l.bodies {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	v := verdict{ratios: make(map[int]float64)}
	var mu sync.Mutex
	fail := func(d *distinctBody, key int, err error) {
		mu.Lock()
		defer mu.Unlock()
		v.failed += d.count
		if v.firstErr == nil {
			v.firstErr = fmt.Errorf("key %d: %w", key, err)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				key := keys[i]
				c, caseErr := caseFor(key)
				for _, d := range l.bodies[key] {
					err := caseErr
					if err == nil && !d.fill {
						err = fmt.Errorf("cache hit does not replay any fill of its key")
					}
					var mk time.Duration
					if err == nil {
						mk, err = checkBody(c, d.body)
					}
					if err != nil {
						fail(d, key, err)
						continue
					}
					mu.Lock()
					v.ratios[key] = float64(mk) / float64(c.lb)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return v
}

// lbCache computes each graph's verify.LowerBound once per run, however
// many requests or goroutines ask for it. Every request of a run asks
// for the same system, so the graph alone is the key.
type lbCache struct {
	mu sync.Mutex
	m  map[*graph.Graph]*lbEntry
}

type lbEntry struct {
	once sync.Once
	lb   time.Duration
	err  error
}

func newLBCache() *lbCache { return &lbCache{m: make(map[*graph.Graph]*lbEntry)} }

// fill sets c's fingerprint and lower bound.
func (l *lbCache) fill(c *planCase) error {
	l.mu.Lock()
	e := l.m[c.g]
	if e == nil {
		e = &lbEntry{}
		l.m[c.g] = e
	}
	l.mu.Unlock()
	e.once.Do(func() { e.lb, e.err = verify.LowerBound(c.g, c.sys) })
	c.fp, c.lb = hexFP(c.g), e.lb
	return e.err
}
