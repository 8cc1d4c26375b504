// Command privateer runs one of the benchmark programs through the full
// Privateer pipeline — profile, classify, select, transform, DOALL — and
// executes it under the speculative runtime, reporting the heap assignment,
// runtime statistics and simulated speedup over the best sequential
// execution.
//
// Usage:
//
//	privateer -prog dijkstra -workers 8
//	privateer -prog blackscholes -workers 24 -input ref -misspec 0.01
//	privateer -prog enc-md5 -mode doall      # the non-speculative baseline
//	privateer -prog swaptions -mode seq      # plain sequential execution
//	privateer -mode serve -serve :6060       # multi-tenant region service
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/progs"
	"privateer/internal/service"
	"privateer/internal/specrt"
	"privateer/internal/vm"
)

// obsState holds the live-introspection wiring when -serve is given: the
// metrics registry and opcode profiler threaded into the speculative
// runtime, plus the HTTP server exposing them.
type obsState struct {
	reg  *obs.Registry
	prof *interp.OpProfiler
	srv  *obs.Server
}

// serving is the process-wide introspection state (nil without -serve).
var serving *obsState

// whyMisspec enables the post-run misspeculation-attribution report.
var whyMisspec bool

// startServe brings up the introspection HTTP server on addr and prints the
// bound address to stderr (addr may use port 0 for an ephemeral port).
func startServe(addr string) error {
	reg := obs.NewRegistry()
	srv := obs.NewServer(reg)
	bound, err := srv.Start(addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "privateer: introspection server listening on http://%s\n", bound)
	serving = &obsState{
		reg:  reg,
		prof: interp.NewOpProfiler(interp.DefaultSampleEvery),
		srv:  srv,
	}
	return nil
}

// specConfig builds the runtime configuration, overlaying the introspection
// registry and profiler when -serve is active.
func specConfig(workers int, misspec float64, seed uint64, period int64) specrt.Config {
	cfg := specrt.Config{
		Workers: workers, MisspecRate: misspec, Seed: seed, CheckpointPeriod: period,
	}
	if serving != nil {
		cfg.Metrics = serving.reg
		cfg.OpProf = serving.prof
	}
	return cfg
}

// postRun emits the optional attribution report and, with -serve, keeps the
// process alive so the introspection endpoints stay scrapable after the run.
func postRun(rt *specrt.RT) {
	if whyMisspec && rt != nil {
		fmt.Print(specrt.FormatMisspecSites(rt.MisspecSites()))
	}
	if serving != nil {
		fmt.Fprintln(os.Stderr, "privateer: run complete; serving until interrupted")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		serving.srv.Close()
	}
}

func main() {
	var (
		progName = flag.String("prog", "dijkstra", "benchmark: "+names())
		irFile   = flag.String("irfile", "", "run a textual-IR module from a file instead of a named benchmark")
		runArgs  = flag.String("args", "", "comma-separated integer arguments for -irfile programs")
		input    = flag.String("input", "ref", "input class: train, ref, alt, huge")
		workers  = flag.Int("workers", 8, "worker process count")
		mode     = flag.String("mode", "privateer", "privateer, doall, seq, or serve")
		misspec  = flag.Float64("misspec", 0, "injected misspeculation rate per iteration")
		seed     = flag.Uint64("seed", 0xC0FFEE, "injection seed")
		period   = flag.Int64("checkpoint", 0, "checkpoint period in iterations (0 = auto)")
		optimize = flag.Bool("O", false, "run the mid-end optimizer before profiling")
		showOut  = flag.Bool("output", false, "print the program's output")
		quiet    = flag.Bool("quiet", false, "suppress the pipeline summary")
		serve    = flag.String("serve", "", "serve live introspection (/metrics, /vars, /debug/pprof) on this address, e.g. :6060")
		whyMiss  = flag.Bool("why-misspec", false, "after the run, print misspeculations attributed to allocation sites")

		// Region-service tuning (only with -mode serve).
		queueDepth  = flag.Int("queue-depth", service.DefaultQueueDepth, "serve: bounded job-queue depth before backpressure")
		concurrency = flag.Int("concurrency", service.DefaultConcurrency, "serve: concurrent region invocations")
		tenantQuota = flag.Int("tenant-quota", 0, "serve: max inflight jobs per tenant (0 = unlimited)")
		poolSlots   = flag.Int("pool-slots", specrt.DefaultPoolSlots, "serve: warmed worker spaces retained per program")
		traceCap    = flag.Int("trace-capacity", 0, "serve: per-job trace ring capacity in events (0 = default, negative disables tracing)")
		flightCap   = flag.Int("flight-entries", 0, "serve: postmortems retained by the flight recorder (0 = default)")
	)
	flag.Parse()
	buildHook = *optimize
	whyMisspec = *whyMiss
	if *mode == "serve" {
		if err := runService(*serve, *workers, *queueDepth, *concurrency,
			*tenantQuota, *poolSlots, *traceCap, *flightCap, *misspec, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "privateer:", err)
			os.Exit(1)
		}
		return
	}
	if *serve != "" {
		if err := startServe(*serve); err != nil {
			fmt.Fprintln(os.Stderr, "privateer:", err)
			os.Exit(1)
		}
	}
	var err error
	if *irFile != "" {
		err = runIRFile(*irFile, *runArgs, *workers, *misspec, *seed, *period, *showOut, *quiet)
	} else {
		err = run(*progName, *input, *workers, *mode, *misspec, *seed, *period, *showOut, *quiet)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "privateer:", err)
		os.Exit(1)
	}
}

// runService runs the process as a long-lived multi-tenant region service:
// the submit/poll API and the introspection endpoints share one listener,
// and SIGINT/SIGTERM triggers a graceful drain before exit.
func runService(addr string, workers, queueDepth, concurrency, tenantQuota,
	poolSlots, traceCap, flightCap int, misspec float64, seed uint64) error {
	if addr == "" {
		addr = ":6060"
	}
	reg := obs.NewRegistry()
	srv := obs.NewServer(reg)
	svc := service.New(service.Config{
		Workers:        workers,
		Concurrency:    concurrency,
		QueueDepth:     queueDepth,
		TenantInflight: tenantQuota,
		PoolSlots:      poolSlots,
		Metrics:        reg,
		TraceCapacity:  traceCap,
		FlightEntries:  flightCap,
		MisspecRate:    misspec,
		Seed:           seed,
	})
	svc.Mount(srv)
	bound, err := srv.Start(addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "privateer: region service listening on http://%s\n", bound)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	fmt.Fprintln(os.Stderr, "privateer: draining region service")
	svc.Drain()
	return srv.Close()
}

// runIRFile parses a textual-IR module, parallelizes it automatically and
// runs it speculatively, comparing against its own sequential execution.
func runIRFile(path, argList string, workers int, misspec float64,
	seed uint64, period int64, showOut, quiet bool) error {
	text, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var args []uint64
	if argList != "" {
		for _, tok := range strings.Split(argList, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 64)
			if err != nil {
				return fmt.Errorf("bad -args element %q: %w", tok, err)
			}
			args = append(args, v)
		}
	}
	// Sequential baseline (a fresh parse: the pipeline mutates modules).
	seqMod, err := ir.Parse(string(text))
	if err != nil {
		return err
	}
	seqIt := interp.New(seqMod, vm.NewAddressSpace())
	seqVal, err := seqIt.Run(args...)
	if err != nil {
		return fmt.Errorf("sequential run: %w", err)
	}
	fmt.Printf("sequential: result %d, %d interpreted instructions\n", int64(seqVal), seqIt.Steps)

	mod, err := ir.Parse(string(text))
	if err != nil {
		return err
	}
	par, err := core.Parallelize(mod, core.Options{TrainArgs: args})
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Print(par.Summary())
	}
	if len(par.Regions) == 0 {
		fmt.Println("nothing parallelized; sequential result stands")
		if showOut {
			fmt.Print(seqIt.Out.String())
		}
		return nil
	}
	rt, got, err := core.Run(par, specConfig(workers, misspec, seed, period), args...)
	if err != nil {
		return err
	}
	match := "MATCHES"
	if got != seqVal {
		match = "DIFFERS FROM"
	}
	st := rt.Stats.Snapshot()
	fmt.Printf("parallel: result %d (%s sequential), %d misspeculations, speedup %.2fx\n",
		int64(got), match, st.Misspecs, float64(seqIt.Steps)/float64(rt.Sim.Time()))
	if showOut {
		fmt.Print(rt.Output())
	}
	postRun(rt)
	return nil
}

// buildHook enables ir.OptimizeModule on freshly built modules.
var buildHook bool

// build constructs (and optionally optimizes) a benchmark module.
func build(p *progs.Program, in progs.Input) *ir.Module {
	m := p.Build(in)
	if buildHook {
		ir.OptimizeModule(m)
	}
	return m
}

func names() string {
	var ns []string
	for _, p := range progs.All() {
		ns = append(ns, p.Name)
	}
	return strings.Join(ns, ", ")
}

func run(progName, input string, workers int, mode string, misspec float64,
	seed uint64, period int64, showOut, quiet bool) error {
	p := progs.ByName(progName)
	if p == nil {
		return fmt.Errorf("unknown program %q (have: %s)", progName, names())
	}
	in, err := p.Input(input)
	if err != nil {
		return err
	}
	fmt.Printf("program %s, input %s\n", p.Name, in)

	// Best sequential execution for the speedup baseline.
	seqIt := interp.New(build(p, in), vm.NewAddressSpace())
	if _, err := seqIt.Run(); err != nil {
		return fmt.Errorf("sequential run: %w", err)
	}
	fmt.Printf("sequential: %d interpreted instructions\n", seqIt.Steps)

	switch mode {
	case "seq":
		if showOut {
			fmt.Print(seqIt.Out.String())
		}
		postRun(nil)
		return nil
	case "doall":
		static, err := core.ParallelizeStatic(build(p, in), core.Options{})
		if err != nil {
			return err
		}
		if !quiet {
			for _, r := range static.Reports {
				status := "selected"
				if !r.Selected {
					status = "rejected: " + r.Reason
				}
				fmt.Printf("  loop %-26s %s\n", r.Loop, status)
			}
		}
		runRes, err := core.RunStatic(static, workers)
		if err != nil {
			return err
		}
		fmt.Printf("DOALL-only: %d loops, %d invocations, simulated time %d, speedup %.2fx\n",
			len(static.Regions), runRes.Baseline.Stats.Invocations,
			runRes.SimTime(), float64(seqIt.Steps)/float64(runRes.SimTime()))
		if showOut {
			fmt.Print(runRes.Output)
		}
		postRun(nil)
		return nil
	case "privateer":
		par, err := core.Parallelize(build(p, in), core.Options{})
		if err != nil {
			return err
		}
		if !quiet {
			fmt.Print(par.Summary())
		}
		rt, _, err := core.Run(par, specConfig(workers, misspec, seed, period))
		if err != nil {
			return err
		}
		st := rt.Stats.Snapshot()
		fmt.Printf("privateer: %d workers, %d invocations, %d checkpoints, "+
			"%d misspeculations, %d recoveries\n",
			workers, st.Invocations, st.Checkpoints, st.Misspecs, st.Recoveries)
		fmt.Printf("privacy: %d reads (%d B), %d writes (%d B); %d separation checks; %d predictions\n",
			st.PrivReadChecks, st.PrivReadBytes, st.PrivWriteChecks, st.PrivWriteBytes,
			st.SeparationChecks, st.Predictions)
		fmt.Printf("simulated time %d, speedup %.2fx\n",
			rt.Sim.Time(), float64(seqIt.Steps)/float64(rt.Sim.Time()))
		if showOut {
			fmt.Print(rt.Output())
		}
		postRun(rt)
		return nil
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
}
