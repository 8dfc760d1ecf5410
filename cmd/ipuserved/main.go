// Command ipuserved runs the solver service: an HTTP JSON API over the
// prepared-pipeline cache of internal/serve. Systems are registered once
// (paying partitioning, upload and symbolic scheduling), then every solve
// against a registered system reuses the compiled program.
//
//	ipuserved -config configs/serve-default.json
//	curl -s localhost:8723/v1/systems -d '{"gen":"poisson3d:16"}'
//	curl -s localhost:8723/v1/systems/<id>/solve -d '{"rhs":"ones"}'
//	curl -s localhost:8723/v1/stats
//
// With -state-dir the registry is crash-safe: every acknowledged
// registration, update, tune decision and deletion is fsynced to a
// write-ahead log under the directory and replayed on startup, so a killed
// server comes back serving the same systems.
//
// Everything else is configured in the -config file, one spelling per knob:
// a device-level fault campaign (the fault and recovery blocks), ABFT
// (solver.abft), the autotuner (serve.tune) and a service-level chaos
// campaign (serve.chaos). Every replica runs the native backend: a config
// whose engine block names another backend or a device trace is refused at
// startup, as the same block is on a registration or PATCH.
//
// Shutdown on SIGINT/SIGTERM is graceful: admission stops, queued jobs
// drain, then the listener closes. -drain-timeout bounds the drain: when a
// wedged solve holds it past the deadline the process exits anyway (the WAL
// already carries every acknowledged registration).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ipusparse/internal/config"
	"ipusparse/internal/serve"
)

func main() {
	addr := flag.String("addr", "", "listen address (overrides the config; default :8723)")
	cfgPath := flag.String("config", "", "JSON configuration with solver and serve blocks")
	portFile := flag.String("port-file", "", "write the bound address to this file once listening (for :0 discovery)")
	stateDir := flag.String("state-dir", "", "crash-safe registry directory (overrides the config; empty disables persistence)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "hard deadline for the graceful drain on SIGINT/SIGTERM")
	flag.Parse()

	if err := run(*addr, *cfgPath, *portFile, *stateDir, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "ipuserved:", err)
		os.Exit(1)
	}
}

func run(addr, cfgPath, portFile, stateDir string, drainTimeout time.Duration) error {
	cfg := config.Default()
	if cfgPath != "" {
		f, err := os.Open(cfgPath)
		if err != nil {
			return err
		}
		var perr error
		cfg, perr = config.Parse(f)
		f.Close()
		if perr != nil {
			return perr
		}
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := serve.CheckServable(&cfg); err != nil {
		return err
	}
	if addr == "" {
		if cfg.Serve != nil && cfg.Serve.Addr != "" {
			addr = cfg.Serve.Addr
		} else {
			addr = ":8723"
		}
	}

	opts := serve.OptionsFromConfig(cfg)
	if stateDir != "" {
		opts.StateDir = stateDir
	}
	if fc := cfg.Fault; fc != nil && fc.Rate > 0 {
		log.Printf("ipuserved: device fault campaign armed: rate=%g seed=%d kinds=%v max=%d",
			fc.Rate, fc.Seed, fc.Kinds, fc.MaxFaults)
	}
	if cfg.Solver.ABFT {
		log.Printf("ipuserved: ABFT armed (checksum SpMV + divergence guards + final verify)")
	}
	if opts.Tune {
		log.Printf("ipuserved: autotuner armed: registrations race candidate configurations")
	}
	if opts.Chaos != nil {
		log.Printf("ipuserved: chaos campaign armed: %+v", opts.Chaos.Plan())
	}

	svc, err := serve.Open(opts)
	if err != nil {
		return err
	}
	if opts.StateDir != "" {
		log.Printf("ipuserved: crash-safe registry at %s (%d systems recovered)",
			opts.StateDir, len(svc.Systems()))
	}
	srv := &http.Server{Handler: svc.Handler()}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("ipuserved listening on %s", ln.Addr())
	if portFile != "" {
		if err := os.WriteFile(portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return err
		}
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		log.Printf("ipuserved: %s, draining", s)
	}

	// Graceful drain with a hard deadline: stop admission and finish queued
	// jobs, then close the HTTP side so in-flight responses are written before
	// the listener dies. A solve wedged past -drain-timeout is abandoned — the
	// WAL already carries every acknowledged registration, so exiting loses
	// nothing durable.
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		log.Printf("ipuserved: drain exceeded %s, exiting with work in flight", drainTimeout)
	}
	if ch := opts.Chaos; ch != nil {
		log.Printf("ipuserved: chaos campaign injected %d faults", len(ch.Events()))
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) &&
		!errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	log.Printf("ipuserved: drained, bye")
	return nil
}
