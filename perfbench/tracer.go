package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files around the call. Spans of one request share Req; Parent is
// the ID of the span that issued the call (0 for a request's root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(req int64, parent int32, name string) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id. A non-empty name renames it, for calls whose
// layer is known only from their answer (a cache hit or a fill).
func (t *tracer) end(id int32, name string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	if name != "" {
		s.Name = name
	}
	t.mu.Unlock()
}

// selfTimes returns, per span name, the self time of every closed span
// in nanoseconds: its duration minus the part of its interval that its
// child spans cover.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		out[s.Name] = append(out[s.Name], float64(self))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := [2]int64{-1, -1}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > cur[1] {
			if cur[1] > cur[0] {
				total += cur[1] - cur[0]
			}
			cur = [2]int64{a, b}
		} else if b > cur[1] {
			cur[1] = b
		}
	}
	if cur[1] > cur[0] {
		total += cur[1] - cur[0]
	}
	return total
}

// write stores the spans as JSON lines under dir, one file per run.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
