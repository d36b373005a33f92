// Command tibfit-serve is the online decision daemon: the TIBFIT
// arbitration pipeline behind an HTTP API, with per-tenant trust
// namespaces, a pollable decision stream, and sealed snapshot/restore.
// See docs/SERVING.md for the endpoint reference.
//
// Usage:
//
//	tibfit-serve [-listen 127.0.0.1:8080] [-tenant default]
//	             [-scheme tibfit] [-tout 100] [-nodes 16]
//	             [-unit 1ms] [-snapshot state.tibs] [-save state.tibs]
//
// The daemon boots with one tenant (-tenant), optionally restored from
// a sealed snapshot file (-snapshot); further tenants are created over
// the API. On SIGINT/SIGTERM it shuts down gracefully, saving the boot
// tenant's sealed state to -save when given.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/tibfit/tibfit/internal/cli"
	"github.com/tibfit/tibfit/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tibfit-serve:", err)
		os.Exit(1)
	}
}

// Connection limits. A client that trickles its request headers, its
// body or its reading of a reply, or that parks an idle keep-alive
// connection, is cut off instead of holding a goroutine and a socket for
// as long as it likes. Every endpoint answers well inside them: the
// largest body is capped at 1 MiB and no handler blocks waiting for data.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 60 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer returns the daemon's HTTP server for h with the
// connection limits above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("tibfit-serve", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:8080", "host:port to serve on")
		tenant   = fs.String("tenant", "default", "boot tenant name")
		tout     = fs.Float64("tout", 100, "boot tenant T_out, in -unit virtual units")
		nodes    = fs.Int("nodes", 16, "boot tenant member count (IDs 0..n-1)")
		unit     = fs.Duration("unit", serve.DefaultUnit, "wall duration of one virtual time unit")
		snapshot = fs.String("snapshot", "", "restore the boot tenant from this sealed snapshot file")
		save     = fs.String("save", "", "write the boot tenant's sealed snapshot here on shutdown")
		drain    = fs.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
	)
	var sf cli.SchemeFlags
	sf.Register(fs, "tibfit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scheme, err := sf.Resolve()
	if err != nil {
		return err
	}
	if _, _, err := net.SplitHostPort(*listen); err != nil {
		return fmt.Errorf("invalid -listen address: %v", err)
	}
	if err := cli.ValidateTenant(*tenant); err != nil {
		return err
	}
	if *tout <= 0 {
		return fmt.Errorf("-tout must be positive, got %v", *tout)
	}
	if *nodes <= 0 {
		return fmt.Errorf("-nodes must be positive, got %d", *nodes)
	}

	srv := serve.NewServer(serve.Config{Unit: *unit})
	defer srv.Close()
	cfg := serve.TenantConfig{
		Scheme: scheme,
		Tout:   *tout,
		Nodes:  *nodes,
	}
	cfg.Lambda = sf.Lambda
	cfg.FaultRate = sf.FaultRate
	if err := srv.CreateTenant(*tenant, cfg); err != nil {
		return err
	}
	if *snapshot != "" {
		blob, err := os.ReadFile(*snapshot)
		if err != nil {
			return fmt.Errorf("loading -snapshot: %v", err)
		}
		inst, _ := srv.Tenant(*tenant)
		if err := inst.RestoreSealed(blob); err != nil {
			return fmt.Errorf("restoring -snapshot %s: %v", *snapshot, err)
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listening on %s: %v", *listen, err)
	}
	httpSrv := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(out, "tibfit-serve: listening on %s (tenant %q, scheme %s, tout %v units of %v)\n",
		ln.Addr(), *tenant, scheme, *tout, *unit)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return fmt.Errorf("serving: %v", err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(out, "tibfit-serve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("draining: %v", err)
	}
	if *save != "" {
		inst, ok := srv.Tenant(*tenant)
		if !ok {
			// The boot tenant was deleted over the API during the run;
			// there is no state to save.
			fmt.Fprintf(out, "tibfit-serve: tenant %q no longer exists, skipping -save\n", *tenant)
			return nil
		}
		blob, err := inst.SealedSnapshot()
		if err != nil {
			return fmt.Errorf("sealing shutdown snapshot: %v", err)
		}
		if err := os.WriteFile(*save, blob, 0o644); err != nil {
			return fmt.Errorf("writing -save: %v", err)
		}
		fmt.Fprintf(out, "tibfit-serve: saved %s (%d bytes)\n", *save, len(blob))
	}
	return nil
}
