package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync/atomic"

	"pesto/internal/fleet"
	"pesto/internal/service"
)

// servingFleet is the system under test of the serving workloads: N
// in-process pestod replicas (service.Server) behind a fleet.Router,
// each replica wrapped in a benchmark-owned timedBackend. It is
// configured as `pestod -fleet N -parallel 1` would be, with hedging
// off: the replicas share the machine's cores, so a solve may use one
// core (a refill then leaves the other to the hits), and a hedge would
// only run a second copy of a slow solve on the same cores.
type servingFleet struct {
	servers  []*service.Server
	backends []*timedBackend
	router   *fleet.Router
}

func newServingFleet(replicas int, seed int64) (*servingFleet, error) {
	f := &servingFleet{}
	backends := make([]fleet.Backend, replicas)
	for i := 0; i < replicas; i++ {
		srv := service.New(service.Config{Parallel: 1})
		id := fmt.Sprintf("r%d", i)
		tb := &timedBackend{inner: fleet.NewHandlerBackend(id, srv)}
		f.servers = append(f.servers, srv)
		f.backends = append(f.backends, tb)
		backends[i] = tb
	}
	rt, err := fleet.New(fleet.Config{Seed: seed, DisableHedge: true}, backends...)
	if err != nil {
		return nil, fmt.Errorf("build router: %w", err)
	}
	f.router = rt
	return f, nil
}

// close drains every replica, so no fill outlives the run.
func (f *servingFleet) close() {
	for _, s := range f.servers {
		_ = s.Drain(context.Background()) // an unbounded drain only returns after every solve ends
	}
}

// cacheStats sums the replicas' fill and eviction counters.
func (f *servingFleet) cacheStats() (fills, evictions int64) {
	for _, s := range f.servers {
		fl, ev, _ := s.CacheStats()
		fills += fl
		evictions += ev
	}
	return fills, evictions
}

// rejected counts the replica answers that were 429 or 503.
func (f *servingFleet) rejected() int64 {
	var n int64
	for _, b := range f.backends {
		n += b.rejected.Load()
	}
	return n
}

// reqSpan carries a traced request's identity to the backends it
// reaches, so their spans nest under the router's.
type reqSpan struct {
	tr   *tracer
	req  int64
	span int32
}

type reqSpanKey struct{}

// timedBackend wraps one replica. In a traced run it records a span per
// replica call under the request's router span — named service.hit or
// service.fill by the replica's answer — which makes the router span's
// self time the router's overhead: round trip minus replica time.
type timedBackend struct {
	inner    fleet.Backend
	rejected atomic.Int64
}

func (b *timedBackend) ID() string { return b.inner.ID() }

func (b *timedBackend) Do(ctx context.Context, method, path string, hdr http.Header, body []byte) (*fleet.Response, error) {
	rs, _ := ctx.Value(reqSpanKey{}).(reqSpan)
	id := rs.tr.begin(rs.req, rs.span, "service.handler")
	resp, err := b.inner.Do(ctx, method, path, hdr, body)
	name := ""
	if err == nil {
		switch {
		case resp.Status == http.StatusTooManyRequests || resp.Status == http.StatusServiceUnavailable:
			b.rejected.Add(1)
		case resp.Status == http.StatusOK && resp.Header.Get("X-Pesto-Cache") == "hit":
			name = "service.hit"
		case resp.Status == http.StatusOK:
			name = "service.fill"
		}
	}
	rs.tr.end(id, name)
	return resp, err
}

// memWriter is a reusable in-memory http.ResponseWriter.
type memWriter struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.header }

func (w *memWriter) WriteHeader(code int) { w.status = code }

func (w *memWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *memWriter) reset() {
	w.header = make(http.Header)
	w.status = http.StatusOK
	w.buf.Reset()
}

// place sends one POST /v1/place body to h through w. With a tracer
// the call is a span of the given name for request req. The returned
// body aliases w's buffer until its next reset.
func place(h http.Handler, w *memWriter, tr *tracer, req int64, name string, body []byte) (status int, resp []byte, hit bool) {
	w.reset()
	r, err := http.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(body))
	if err != nil {
		return 0, nil, false
	}
	id := tr.begin(req, 0, name)
	if id != 0 {
		r = r.WithContext(context.WithValue(r.Context(), reqSpanKey{}, reqSpan{tr: tr, req: req, span: id}))
	}
	h.ServeHTTP(w, r)
	tr.end(id, "")
	return w.status, w.buf.Bytes(), w.header.Get("X-Pesto-Cache") == "hit"
}
