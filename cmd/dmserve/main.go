// Command dmserve is the coordinator of the distributed exploration
// service. It accepts sweep and NSGA-II island jobs over HTTP/JSON,
// partitions them into work-stealing shards, leases the shards to
// dmworker processes, streams the merged journal to followers and
// checkpoints every result — restart the coordinator and every running
// job resumes from its journal.
//
// Examples:
//
//	dmserve -addr localhost:8710 -state state/
//	dmexplore -submit http://localhost:8710 -strategy evolve -islands 4
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmexplore/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dmserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dmserve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "localhost:8710", "listen address")
		stateDir = fs.String("state", "dmserve-state", "checkpoint directory: jobs found here resume on startup")
		leaseTTL = fs.Duration("lease-ttl", serve.DefaultLeaseTTL, "shard lease TTL; a worker silent for this long forfeits its shards")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	coord, err := serve.NewCoordinator(serve.Options{StateDir: *stateDir, LeaseTTL: *leaseTTL})
	if err != nil {
		return err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: coord.Handler()}
	fmt.Printf("dmserve: listening on http://%s (state in %s)\n", ln.Addr(), *stateDir)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "dmserve: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		return nil
	case err := <-errc:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	}
}
