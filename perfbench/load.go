package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// loadStats is what a load phase observed: per-request latency and how
// late the generator sent each request, both in milliseconds, each
// request's latency as a share of its solve budget, and the phase's
// wall time and operation count.
type loadStats struct {
	lat       []float64
	late      []float64
	budgetUse []float64
	ops       int64
	elapsed   time.Duration
}

// An op performs one request for the given client and returns the
// request's solve budget in milliseconds; ok false stops the client.
type op func(client int) (budgetMs float64, ok bool)

// closedLoop runs clients goroutines until the deadline, each sending
// its next request when the previous one completes. A request is due
// when its client's previous one completed, so lateness is the
// generator's own gap between the two.
func closedLoop(clients int, d time.Duration, do op) loadStats {
	start := time.Now()
	until := start.Add(d)
	per := make([]loadStats, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			due := time.Now()
			for due.Before(until) {
				sent := time.Now()
				budget, ok := do(c)
				if !ok {
					return
				}
				done := time.Now()
				st.record(ms(sent.Sub(due)), ms(done.Sub(sent)), budget)
				due = done
			}
		}(c)
	}
	wg.Wait()
	return merge(per, time.Since(start))
}

// openLoop sends requests on a fixed schedule of rate per second for d,
// with at most clients in flight. Latency is timed from each request's
// due time, so a stall is charged to every request queued behind it;
// lateness is how far past its due time the request was sent.
func openLoop(clients int, rate float64, d time.Duration, do op) loadStats {
	interval := time.Duration(float64(time.Second) / rate)
	n := int64(d / interval)
	var next atomic.Int64
	start := time.Now()
	per := make([]loadStats, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				budget, ok := do(c)
				if !ok {
					return
				}
				st.record(ms(sent.Sub(due)), ms(time.Since(due)), budget)
			}
		}(c)
	}
	wg.Wait()
	return merge(per, time.Since(start))
}

func (st *loadStats) record(late, lat, budgetMs float64) {
	st.late = append(st.late, late)
	st.lat = append(st.lat, lat)
	st.budgetUse = append(st.budgetUse, lat/budgetMs)
	st.ops++
}

func merge(per []loadStats, elapsed time.Duration) loadStats {
	out := loadStats{elapsed: elapsed}
	for _, st := range per {
		out.lat = append(out.lat, st.lat...)
		out.late = append(out.late, st.late...)
		out.budgetUse = append(out.budgetUse, st.budgetUse...)
		out.ops += st.ops
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// add accumulates another phase's samples, operations and wall time.
func (st *loadStats) add(o loadStats) {
	st.lat = append(st.lat, o.lat...)
	st.late = append(st.late, o.late...)
	st.budgetUse = append(st.budgetUse, o.budgetUse...)
	st.ops += o.ops
	st.elapsed += o.elapsed
}

// limited stops an op after n requests.
func limited(do op, n int) op {
	left := n
	return func(c int) (float64, bool) {
		if left == 0 {
			return 0, false
		}
		left--
		return do(c)
	}
}

// overheadPct compares the per-request wall time of traced requests
// with untraced ones.
func overheadPct(base, traced loadStats) float64 {
	b := base.elapsed.Seconds() / float64(base.ops)
	t := traced.elapsed.Seconds() / float64(traced.ops)
	return 100 * (t - b) / b
}
