// Package bench regenerates every table and figure of the paper's
// evaluation (section 6): Table 1 (technique comparison), Table 3 (dynamic
// program details), Figure 6 (whole-program speedups), Figure 7 (Privateer
// vs DOALL-only), Figure 8 (overhead breakdown) and Figure 9 (sensitivity
// to misspeculation).
//
// Speedups are reported in deterministic simulated time (see
// specrt/sim.go): the host machine's core count does not affect results,
// only the modeled 24-worker machine does. Shapes — who wins, scaling
// trends, where DOALL-only fails — are the quantities reproduced; absolute
// factors depend on the cost model, not on the authors' testbed.
package bench

import (
	"fmt"
	"math"
	"strings"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/obs"
	"privateer/internal/progs"
	"privateer/internal/specrt"
	"privateer/internal/vm"
)

// Config selects inputs and sweep points.
type Config struct {
	// Input is the input class for measurements ("train", "ref", "alt").
	Input string
	// WorkerCounts is Figure 6's sweep.
	WorkerCounts []int
	// Fig8Workers is Figure 8's sweep.
	Fig8Workers []int
	// MisspecRates is Figure 9's sweep (fraction of iterations).
	MisspecRates []float64
	// FixedWorkers is the machine size for Figures 7 and 9 (the paper's
	// 24-core machine).
	FixedWorkers int
	// Programs restricts the benchmark set (nil = all five).
	Programs []string
	// Trace receives speculation-lifecycle events from every speculative
	// run the suite performs (nil disables tracing).
	Trace *obs.Tracer
	// Metrics, when non-nil, is threaded into every speculative run so a
	// live introspection server can observe the suite as it executes.
	Metrics *obs.Registry
	// OpProf, when non-nil, is the sampling opcode profiler threaded into
	// every speculative run.
	OpProf *interp.OpProfiler
}

// DefaultConfig mirrors the paper's evaluation points.
func DefaultConfig() Config {
	return Config{
		Input:        "ref",
		WorkerCounts: []int{1, 4, 8, 12, 16, 20, 24},
		Fig8Workers:  []int{4, 8, 12, 16, 20, 24},
		// The paper sweeps 0.01%-1% on loops of >= 1000 iterations
		// (expected 0.1-10 misspeculations). These loops run 48-192
		// iterations, so the rates are rescaled to land in the same
		// expected-misspeculation regime.
		MisspecRates: []float64{0, 0.01, 0.03, 0.10},
		FixedWorkers: 24,
	}
}

// QuickConfig is a scaled-down configuration for tests.
func QuickConfig() Config {
	return Config{
		Input:        "train",
		WorkerCounts: []int{1, 4, 8},
		Fig8Workers:  []int{4, 8},
		MisspecRates: []float64{0, 0.10},
		FixedWorkers: 8,
	}
}

// prepared caches the compiled artifacts for one benchmark so every figure
// reuses one profile+transform.
type prepared struct {
	prog     *progs.Program
	input    progs.Input
	seqSteps int64
	par      *core.Parallelized
	static   *core.StaticParallelized
	trace    *obs.Tracer
	metrics  *obs.Registry
	opprof   *interp.OpProfiler
}

// Suite prepares all benchmarks once and runs the experiments.
type Suite struct {
	// Cfg is the configuration in force.
	Cfg      Config
	programs []*prepared
}

// NewSuite compiles every benchmark (sequential baseline, Privateer
// pipeline, DOALL-only pipeline) for the configured input.
func NewSuite(cfg Config) (*Suite, error) {
	s := &Suite{Cfg: cfg}
	for _, p := range progs.All() {
		if len(cfg.Programs) > 0 && !containsString(cfg.Programs, p.Name) {
			continue
		}
		pr, err := prepare(p, cfg.Input)
		if err != nil {
			return nil, err
		}
		pr.trace = cfg.Trace
		pr.metrics = cfg.Metrics
		pr.opprof = cfg.OpProf
		s.programs = append(s.programs, pr)
	}
	return s, nil
}

func containsString(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// nsRatio returns before/after, or 0 when after was not measured.
func nsRatio(before, after int64) float64 {
	if after <= 0 {
		return 0
	}
	return float64(before) / float64(after)
}

// seqStepsOf measures the unmodified program's simulated time.
func seqStepsOf(p *progs.Program, in progs.Input) (int64, error) {
	seqIt := interp.New(p.Build(in), vm.NewAddressSpace())
	if _, err := seqIt.Run(); err != nil {
		return 0, fmt.Errorf("%s sequential: %w", p.Name, err)
	}
	return seqIt.Steps, nil
}

func prepare(p *progs.Program, inputName string) (*prepared, error) {
	in, err := p.Input(inputName)
	if err != nil {
		return nil, err
	}
	// Best sequential execution: the unmodified program.
	seqSteps, err := seqStepsOf(p, in)
	if err != nil {
		return nil, err
	}
	par, err := core.Parallelize(p.Build(in), core.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s parallelize: %w", p.Name, err)
	}
	static, err := core.ParallelizeStatic(p.Build(in), core.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s static parallelize: %w", p.Name, err)
	}
	return &prepared{prog: p, input: in, seqSteps: seqSteps, par: par, static: static}, nil
}

// runPrivateer executes the speculative build and returns the runtime.
func (pr *prepared) runPrivateer(cfg specrt.Config) (*specrt.RT, error) {
	if cfg.Trace == nil {
		cfg.Trace = pr.trace
	}
	if cfg.Metrics == nil {
		cfg.Metrics = pr.metrics
	}
	if cfg.OpProf == nil {
		cfg.OpProf = pr.opprof
	}
	rt, _, err := core.Run(pr.par, cfg)
	return rt, err
}

// speedup is seq simulated time over parallel simulated time.
func (pr *prepared) speedup(rt *specrt.RT) float64 {
	t := rt.Sim.Time()
	if t <= 0 {
		return 0
	}
	return float64(pr.seqSteps) / float64(t)
}

// staticSpeedup runs the DOALL-only build at the given worker count.
func (pr *prepared) staticSpeedup(workers int) (float64, error) {
	run, err := core.RunStatic(pr.static, workers)
	if err != nil {
		return 0, err
	}
	t := run.SimTime()
	if t <= 0 {
		return 0, nil
	}
	return float64(pr.seqSteps) / float64(t), nil
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(header)
	for i := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", widths[i]))
	}
	sb.WriteString("\n")
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}
