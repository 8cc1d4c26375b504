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
	"slices"
	"strings"

	"privateer/internal/bench"
	"privateer/internal/interp"
	"privateer/internal/obs"
)

func main() {
	var (
		experiment = flag.String("experiment", "all",
			"all, table1, table3, fig6, fig7, fig8, fig9, ablation, elision, staticsep, obsoverhead, or service")
		input     = flag.String("input", "", "input class override: train, ref, alt, huge")
		quick     = flag.Bool("quick", false, "scaled-down configuration (train inputs)")
		programs  = flag.String("programs", "", "comma-separated subset of benchmarks")
		workers   = flag.Int("workers", 0, "machine size override for fig7/fig9, ablation, elision and staticsep")
		jsonOut   = flag.Bool("json", false, "machine-readable output (elision, staticsep, obsoverhead, service only)")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON file of the speculation lifecycle")
		eventsOut = flag.Bool("events", false, "print an event summary table after the experiment")
		serve     = flag.String("serve", "", "serve live introspection (/metrics, /vars, /debug/pprof) on this address while experiments run")
	)
	flag.Parse()
	if err := run(*experiment, *input, *quick, *programs, *workers, *jsonOut, *traceOut, *eventsOut, *serve); err != nil {
		fmt.Fprintln(os.Stderr, "privateer-bench:", err)
		os.Exit(1)
	}
}

// experiments lists every -experiment value; jsonExperiments those with a
// -json form.
var (
	experiments     = []string{"all", "table1", "table3", "fig6", "fig7", "fig8", "fig9", "ablation", "elision", "staticsep", "obsoverhead", "service"}
	jsonExperiments = []string{"elision", "staticsep", "obsoverhead", "service"}
)

func run(experiment, input string, quick bool, programs string, workers int, jsonOut bool, traceOut string, eventsOut bool, serve string) error {
	if !slices.Contains(experiments, experiment) {
		return fmt.Errorf("unknown experiment %q (have: %s)", experiment, strings.Join(experiments, ", "))
	}
	if jsonOut && !slices.Contains(jsonExperiments, experiment) {
		return fmt.Errorf("-json is not supported by -experiment %s (only %s)", experiment, strings.Join(jsonExperiments, ", "))
	}
	cfg := bench.DefaultConfig()
	if quick {
		cfg = bench.QuickConfig()
	}
	toggle := experiment == "elision" || experiment == "staticsep"
	if input != "" {
		cfg.Input = input
	} else if toggle && !quick {
		// These experiments exist to exercise the ~100x inputs.
		cfg.Input = "huge"
	}
	if programs != "" {
		cfg.Programs = strings.Split(programs, ",")
	}
	if workers > 0 {
		cfg.FixedWorkers = workers
	} else if toggle {
		// Host-sized: oversubscription would put scheduler noise into the
		// wall-clock columns.
		cfg.FixedWorkers = 8
	}

	// Live introspection: a registry plus HTTP server observing every
	// speculative run the suite performs.
	if serve != "" {
		reg := obs.NewRegistry()
		srv := obs.NewServer(reg)
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
	if toggle {
		reps := 3 // wall-clock minimum over this many runs per build
		if quick {
			reps = 1
		}
		rep, err := bench.RunToggle(cfg, experiment, reps)
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
		el, err := bench.RunToggle(cfg, "sep-elision", 1)
		if err != nil {
			return err
		}
		fmt.Println(el.Format())
		vp, err := bench.AblationValuePrediction(cfg)
		if err != nil {
			return err
		}
		fmt.Println(vp.Format())
	}
	return nil
}
