// Command privateer-bench regenerates the paper's evaluation: Table 1,
// Table 3, and Figures 6-9 (see DESIGN.md's experiment index).
//
// Usage:
//
//	privateer-bench                    # everything, ref inputs (~1 minute)
//	privateer-bench -experiment fig6
//	privateer-bench -quick             # scaled-down sweep on train inputs
//	privateer-bench -programs dijkstra,enc-md5 -experiment fig7
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"privateer/internal/bench"
	"privateer/internal/interp"
	"privateer/internal/obs"
	"privateer/internal/specrt"
)

func main() {
	var (
		experiment = flag.String("experiment", "all",
			"all, table1, table3, fig6, fig7, fig8, fig9, ablation, micro, elision, staticsep, obsoverhead, or service")
		input     = flag.String("input", "", "input class override: train, ref, alt, huge")
		quick     = flag.Bool("quick", false, "scaled-down configuration (train inputs)")
		programs  = flag.String("programs", "", "comma-separated subset of benchmarks")
		workers   = flag.Int("workers", 0, "machine size override for fig7/fig9")
		jsonOut   = flag.Bool("json", false, "machine-readable output (micro, elision, staticsep, obsoverhead, service)")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON file of the speculation lifecycle")
		eventsOut = flag.Bool("events", false, "print an event summary table after the experiment")
		serve     = flag.String("serve", "", "serve live introspection (/metrics, /vars, /spec, /debug/pprof) on this address while experiments run")
	)
	flag.Parse()
	if err := run(*experiment, *input, *quick, *programs, *workers, *jsonOut, *traceOut, *eventsOut, *serve); err != nil {
		fmt.Fprintln(os.Stderr, "privateer-bench:", err)
		os.Exit(1)
	}
}

func run(experiment, input string, quick bool, programs string, workers int, jsonOut bool, traceOut string, eventsOut bool, serve string) error {
	cfg := bench.DefaultConfig()
	if quick {
		cfg = bench.QuickConfig()
	}
	if input != "" {
		cfg.Input = input
	} else if (experiment == "elision" || experiment == "staticsep") && !quick {
		// These experiments exist to exercise the ~100x inputs.
		cfg.Input = "huge"
	}
	if programs != "" {
		cfg.Programs = strings.Split(programs, ",")
	}
	if workers > 0 {
		cfg.FixedWorkers = workers
	}

	// Live introspection: a registry plus HTTP server observing every
	// speculative run the suite performs.
	if serve != "" {
		reg := obs.NewRegistry()
		srv := obs.NewServer(reg)
		srv.SetSpec(specrt.LatestSpec)
		bound, err := srv.Start(serve)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "privateer-bench: introspection server listening on http://%s\n", bound)
		cfg.Metrics = reg
		cfg.OpProf = interp.NewOpProfiler(interp.DefaultSampleEvery)
	}

	// Tracing: events stream into a ring collector; after the experiment the
	// retained window is exported and/or summarized.
	var collector *obs.Collector
	var tracer *obs.Tracer
	if traceOut != "" || eventsOut {
		collector = obs.NewCollector(1 << 16)
		tracer = obs.NewTracer(collector)
		cfg.Trace = tracer
		if cfg.Metrics != nil {
			collector.PublishMetrics(cfg.Metrics)
		}
	}
	finishTrace := func() error {
		if collector == nil {
			return nil
		}
		events := collector.Events()
		if dropped := collector.Dropped(); dropped > 0 {
			fmt.Fprintf(os.Stderr, "privateer-bench: trace ring overflowed; oldest %d of %d events dropped\n",
				dropped, collector.Total())
		}
		if traceOut != "" {
			f, err := os.Create(traceOut)
			if err != nil {
				return err
			}
			if err := obs.WriteChromeTrace(f, events); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "privateer-bench: wrote %d events to %s\n", len(events), traceOut)
		}
		if eventsOut {
			fmt.Println(obs.FormatSummary(events))
		}
		return nil
	}

	if experiment == "table1" {
		fmt.Println(bench.Table1())
		return nil
	}
	if experiment == "elision" {
		rep, err := bench.RunElision(cfg, quick)
		if err != nil {
			return err
		}
		if jsonOut {
			fmt.Println(rep.JSON())
		} else {
			fmt.Println(rep.Format())
		}
		return nil
	}
	if experiment == "staticsep" {
		rep, err := bench.RunStaticSep(cfg, quick)
		if err != nil {
			return err
		}
		if jsonOut {
			fmt.Println(rep.JSON())
		} else {
			fmt.Println(rep.Format())
		}
		return nil
	}
	if experiment == "micro" {
		rep, err := bench.RunMicroTraced(tracer)
		if err != nil {
			return err
		}
		if jsonOut {
			fmt.Println(rep.JSON())
		} else {
			fmt.Println(rep.Format())
		}
		return finishTrace()
	}
	if experiment == "service" {
		rep, err := bench.RunService(cfg, quick)
		if err != nil {
			return err
		}
		if jsonOut {
			fmt.Println(rep.JSON())
		} else {
			fmt.Println(rep.Format())
		}
		return nil
	}
	if experiment == "obsoverhead" {
		rep, err := bench.RunObsOverhead()
		if err != nil {
			return err
		}
		if jsonOut {
			fmt.Println(rep.JSON())
		} else {
			fmt.Println(rep.Format())
		}
		return nil
	}
	suite, err := bench.NewSuite(cfg)
	if err != nil {
		return err
	}
	defer func() {
		if err := finishTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "privateer-bench: trace:", err)
		}
	}()
	switch experiment {
	case "all":
		out, err := suite.All()
		fmt.Println(out)
		return err
	case "table3":
		r, err := suite.Table3()
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "fig6":
		r, err := suite.Fig6()
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "fig7":
		r, err := suite.Fig7()
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "fig8":
		r, err := suite.Fig8()
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "fig9":
		r, err := suite.Fig9()
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "ablation":
		cp, err := suite.AblationCheckpointPeriod("dijkstra",
			[]int64{1, 2, 4, 8, 16, 32, 64}, 0.03)
		if err != nil {
			return err
		}
		fmt.Println(cp.Format())
		el, err := bench.AblationElision(cfg)
		if err != nil {
			return err
		}
		fmt.Println(el.Format())
		vp, err := bench.AblationValuePrediction(cfg)
		if err != nil {
			return err
		}
		fmt.Println(vp.Format())
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}
