package serve

import (
	"fmt"
	"net/http"
)

// Health endpoints, mounted on the metrics listener by cmd/abnn2-server:
//
//   - /healthz answers 200 while the process is alive — liveness only,
//     never load-dependent, so orchestrators do not restart a merely
//     saturated server.
//   - /readyz answers 200 once the runtime should receive traffic
//     (models registered, bank store recovered, not draining) and 503
//     with the blocking reason otherwise — the signal load balancers
//     gate on, flipping back to 503 the moment Drain begins.

// HealthzHandler reports process liveness.
func (rt *Runtime) HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// ReadyzHandler reports traffic readiness, with the blocking reason in
// the 503 body.
func (rt *Runtime) ReadyzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		ready, reason := rt.ReadyState()
		if !ready {
			http.Error(w, reason, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, reason)
	})
}
