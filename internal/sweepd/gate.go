package sweepd

import (
	"net/http"
	"sync/atomic"
)

// Gate is the server's startup readiness front: it lets the daemon bind
// its listener and answer liveness probes immediately, while journal
// replay and campaign resume (which NewService does synchronously, and
// which can take a while over a large data directory) are still in
// progress. Until SetReady, /healthz answers 200 — the process is alive
// — and every other route, /readyz included, answers 503 so load
// balancers and scripts keep waiting. SetReady atomically swaps in the
// real handler; from then on the gate is a transparent passthrough.
type Gate struct {
	h atomic.Pointer[http.Handler]
}

// NewGate builds a gate in the not-ready state.
func NewGate() *Gate { return &Gate{} }

// SetReady installs the real handler, flipping every route (readyz
// included) from 503 to live service.
func (g *Gate) SetReady(h http.Handler) {
	g.h.Store(&h)
}

// ServeHTTP answers for the not-yet-ready server, or delegates once
// ready.
func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := g.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	if r.URL.Path == "/healthz" {
		w.Header().Set("Content-Type", "text/plain")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	w.Header().Set("Retry-After", "1")
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write([]byte("starting: journal replay in progress\n"))
}
