// Command tuniod serves tuning-as-a-service: a multi-tenant HTTP server
// that runs tuning sessions over one shared tunio.Engine, so concurrent
// jobs share a bounded worker pool, the content-addressed kernel store,
// and the stage cache — a repeat kernel skips recording entirely and
// rides cached stage plans.
//
// Usage:
//
//	tuniod                         # listen on :8377, unbounded workers
//	tuniod -addr :0 -workers 8     # ephemeral port (printed), 8-worker budget
//	tuniod -quota 4                # at most 4 concurrent sessions per tenant
//	tuniod -agent agent.json       # serve pipeline=tunio with this trained agent
//	tuniod -artifacts dir          # serve the agent trained by `tuniotrain -artifacts dir`
//	tuniod -store kernels.json     # persist the kernel store across restarts
//	tuniod -pprof                  # expose /debug/pprof (contention profiling)
//
// Submit a job, stream its curve, read engine stats:
//
//	curl -s localhost:8377/v1/jobs -d '{"workload":"flash","seed":1}'
//	curl -N localhost:8377/v1/jobs/job-1/events
//	curl -s localhost:8377/v1/stats
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"tunio"
	"tunio/internal/core"
	"tunio/internal/replay"
	"tunio/internal/server"
)

func main() {
	addr := flag.String("addr", ":8377", "listen address (use :0 for an ephemeral port; the bound address is printed)")
	workers := flag.Int("workers", 0, "engine-wide evaluation budget shared by all sessions (0 = unbounded)")
	quota := flag.Int("quota", 0, "max concurrent sessions per tenant (0 = unlimited)")
	agentIn := flag.String("agent", "", "serve pipeline=tunio jobs with this trained agent JSON (default: train lazily on first use)")
	artifacts := flag.String("artifacts", "", "serve pipeline=tunio jobs with the agent from this tuniotrain artifacts directory")
	storePath := flag.String("store", "", "kernel store file: loaded at startup if present, saved on shutdown")
	trainSeed := flag.Int64("train-seed", 1, "seed for lazy agent training")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof/* on the listen address, with mutex and block profiling on")
	flag.Parse()

	if *agentIn != "" && *artifacts != "" {
		fatal(fmt.Errorf("-agent and -artifacts are mutually exclusive"))
	}
	var agent *tunio.TunIO
	if *agentIn != "" {
		blob, err := os.ReadFile(*agentIn)
		if err != nil {
			fatal(err)
		}
		agent = &tunio.TunIO{Stopper: &core.EarlyStopper{}, Picker: &core.SmartPicker{}}
		if err := json.Unmarshal(blob, agent); err != nil {
			fatal(fmt.Errorf("loading agent: %w", err))
		}
	}
	if *artifacts != "" {
		var err error
		if agent, err = tunio.LoadAgentArtifacts(*artifacts); err != nil {
			fatal(fmt.Errorf("loading agent artifacts: %w", err))
		}
	}

	store := replay.NewKernelStore()
	if *storePath != "" {
		n, err := store.Load(*storePath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// first boot: the store file appears at shutdown
		case err != nil:
			fatal(err)
		default:
			fmt.Fprintf(os.Stderr, "tuniod: kernel store: loaded %d kernels from %s\n", n, *storePath)
		}
	}

	engine := tunio.NewEngine(tunio.EngineOptions{Workers: *workers, TenantQuota: *quota, KernelStore: store})
	handler, err := server.New(server.Options{
		Engine: engine,
		Agent:  agent,
		Train:  &tunio.TrainConfig{Seed: *trainSeed},
	})
	if err != nil {
		fatal(err)
	}

	// The API handler owns the whole path space, so pprof needs its own
	// mux in front: /debug/pprof/* is answered locally, everything else
	// falls through to the API. Mutex/block profiling is sampled only
	// when asked — both have a (small) steady-state cost: every contended
	// mutex event, and blocking events of a microsecond or more.
	var root http.Handler = handler
	if *pprofOn {
		runtime.SetMutexProfileFraction(1)
		runtime.SetBlockProfileRate(1000)
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		root = mux
		fmt.Fprintln(os.Stderr, "tuniod: pprof enabled (mutex fraction 1, block rate 1000 ns)")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Announce the bound address (not the requested one) so callers that
	// asked for :0 can discover the port.
	fmt.Fprintf(os.Stderr, "tuniod: listening on http://%s\n", ln.Addr())

	srv := &http.Server{Handler: root}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			saveStore(store, *storePath)
			fatal(err)
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "tuniod: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
	}
	saveStore(store, *storePath)
}

// saveStore persists the kernel store so the next boot serves recorded
// kernels without rerunning them. A best-effort operation: a failed save
// costs re-recording, not correctness.
func saveStore(store *replay.KernelStore, path string) {
	if path == "" {
		return
	}
	n, err := store.Save(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tuniod: kernel store:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "tuniod: kernel store: saved %d kernels to %s\n", n, path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tuniod:", err)
	os.Exit(1)
}
