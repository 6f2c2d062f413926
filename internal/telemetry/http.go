package telemetry

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// The expvar variable is published once per process but must follow the
// collector of the current run, so the published Func reads an atomic
// pointer the latest Serve call installs.
var (
	expvarOnce sync.Once
	currentCol atomic.Pointer[Collector]
)

// ExpvarName is the name the live telemetry snapshot is published under
// in /debug/vars.
const ExpvarName = "dmexplore.telemetry"

func publishExpvar(col *Collector) {
	currentCol.Store(col)
	expvarOnce.Do(func() {
		expvar.Publish(ExpvarName, expvar.Func(func() any {
			c := currentCol.Load()
			if c == nil {
				return nil
			}
			return c.Snapshot()
		}))
	})
}

// Server is a running metrics endpoint.
type Server struct {
	Addr string // actual listen address (resolves ":0")
	srv  *http.Server
	done chan struct{}
}

// CloseTimeout bounds how long Server.Close waits for in-flight scrapes
// before forcing the listener shut.
const CloseTimeout = 5 * time.Second

// Serve starts an HTTP listener at addr exposing:
//
//	/metrics      — Prometheus text exposition of the live snapshot,
//	                plus the per-stage histograms of col.Spans()
//	/healthz      — liveness probe, always "ok"
//	/debug/vars   — expvar, including the live telemetry snapshot
//	/debug/pprof/ — net/http/pprof profiles for diagnosing long sweeps
//
// It returns once the listener is bound; the server runs until Close.
func Serve(addr string, col *Collector) (*Server, error) {
	publishExpvar(col)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A scrape races the run by design: the snapshot reads atomic
		// aggregates, never the raw rings.
		_ = WritePrometheus(w, col.Snapshot(), col.Spans().Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "dmexplore telemetry\n\n/metrics\n/healthz\n/debug/vars\n/debug/pprof/\n")
	})
	s := &Server{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		// ErrServerClosed is the normal Close path; anything else is
		// invisible to the sweep and intentionally dropped.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Close stops accepting connections, lets in-flight scrapes finish for
// up to CloseTimeout, then forces the rest shut and waits for the serve
// loop to exit.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), CloseTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// Deadline hit with scrapes still open: sever them.
		err = s.srv.Close()
	}
	<-s.done
	return err
}
