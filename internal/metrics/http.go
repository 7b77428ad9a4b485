// http.go is jwins-train's -telemetry-addr endpoint: Prometheus exposition
// at /metrics, expvar at /debug/vars, and the full net/http/pprof surface at
// /debug/pprof/ — all stdlib, so a long run gets live introspection without
// a single dependency.
package metrics

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// servedRegistries feeds the single global expvar var: expvar.Publish is
// process-global and panics on duplicate names, so every Serve call appends
// its registry here and "jwins_metrics" is published exactly once.
var (
	servedMu         sync.Mutex
	servedRegistries []*Registry
	publishOnce      sync.Once
)

func publishExpvar() {
	expvar.Publish("jwins_metrics", expvar.Func(func() any {
		servedMu.Lock()
		regs := append([]*Registry(nil), servedRegistries...)
		servedMu.Unlock()
		if len(regs) == 1 {
			return regs[0].Snapshot()
		}
		out := make([]*Snapshot, len(regs))
		for i, r := range regs {
			out[i] = r.Snapshot()
		}
		return out
	}))
}

// Server is a live telemetry HTTP listener. Close releases the port.
type Server struct {
	ln  net.Listener
	srv *http.Server
	reg *Registry
}

// Serve starts a telemetry server on addr (e.g. "127.0.0.1:9090", or ":0"
// for an ephemeral port — see Addr). The registry is scraped live: each
// /metrics request renders the current atomic values.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	servedMu.Lock()
	servedRegistries = append(servedRegistries, reg)
	servedMu.Unlock()
	publishOnce.Do(publishExpvar)

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{ln: ln, srv: &http.Server{Handler: mux}, reg: reg}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and withdraws the registry from the expvar view.
// In-flight requests are abandoned; telemetry is best-effort by design.
func (s *Server) Close() error {
	servedMu.Lock()
	for i, r := range servedRegistries {
		if r == s.reg {
			servedRegistries = append(servedRegistries[:i], servedRegistries[i+1:]...)
			break
		}
	}
	servedMu.Unlock()
	return s.srv.Close()
}
