package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/service"
	"privateer/internal/vm"
)

// The obsoverhead experiment quantifies what observability costs where it
// could hurt: the sampling per-opcode profiler on the interpreter's hottest
// path, and per-job flight-recorder tracing on the region service's job
// path. Each comparison runs the same workload with the instrument detached
// and attached, interleaving rounds so host-side drift (frequency scaling,
// GC) hits both configurations equally, and reports the relative slowdown.
// The acceptance bar is <5% overhead for both rows.

// ObsOverheadReport is the profiler-overhead measurement.
type ObsOverheadReport struct {
	// BaselineNSPerOp is dispatch cost with no profiler attached.
	BaselineNSPerOp float64 `json:"baseline_ns_per_op"`
	// ProfiledNSPerOp is dispatch cost with the sampling profiler attached.
	ProfiledNSPerOp float64 `json:"profiled_ns_per_op"`
	// OverheadPct is the relative slowdown in percent.
	OverheadPct float64 `json:"overhead_pct"`
	// SampleEvery is the profiler's sampling period in instructions.
	SampleEvery int64 `json:"sample_every"`
	// BaselineOps and ProfiledOps are the instructions executed per leg.
	BaselineOps int64 `json:"baseline_ops"`
	// ProfiledOps is the instruction count of the profiled leg.
	ProfiledOps int64 `json:"profiled_ops"`
	// ProfiledExecuted is the profiler's estimated executed-instruction
	// total. It trails ProfiledOps by at most one sampling window per
	// profiled run (the unattributed tail after each run's last sample) —
	// a self-check that sampling attribution covers the stream.
	ProfiledExecuted int64 `json:"profiled_executed"`
	// ServiceBaselineNSPerJob is the region service's per-job cost with
	// per-job tracing disabled.
	ServiceBaselineNSPerJob float64 `json:"service_baseline_ns_per_job"`
	// ServiceTracedNSPerJob is the per-job cost with the flight recorder's
	// per-job tracing (the default) enabled.
	ServiceTracedNSPerJob float64 `json:"service_traced_ns_per_job"`
	// ServiceOverheadPct is the service-path tracing slowdown in percent.
	ServiceOverheadPct float64 `json:"service_overhead_pct"`
	// ServiceJobs is the number of jobs each service leg executed.
	ServiceJobs int64 `json:"service_jobs"`
}

// JSON renders the report as machine-readable JSON.
func (r *ObsOverheadReport) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Format renders the report for terminal output.
func (r *ObsOverheadReport) Format() string {
	var sb strings.Builder
	sb.WriteString("Opcode-profiler overhead (dispatch microbenchmark, wall clock)\n\n")
	rows := [][]string{
		{"baseline", fmt.Sprintf("%.1f", r.BaselineNSPerOp), "-"},
		{fmt.Sprintf("profiled (1/%d)", r.SampleEvery),
			fmt.Sprintf("%.1f", r.ProfiledNSPerOp),
			fmt.Sprintf("%+.1f%%", r.OverheadPct)},
	}
	sb.WriteString(table([]string{"configuration", "ns/instr", "overhead"}, rows))
	sb.WriteString(fmt.Sprintf("\nService-path tracing (%d jobs per leg, wall clock)\n\n",
		r.ServiceJobs))
	srows := [][]string{
		{"untraced", fmt.Sprintf("%.0f", r.ServiceBaselineNSPerJob), "-"},
		{"traced", fmt.Sprintf("%.0f", r.ServiceTracedNSPerJob),
			fmt.Sprintf("%+.1f%%", r.ServiceOverheadPct)},
	}
	sb.WriteString(table([]string{"configuration", "ns/job", "overhead"}, srows))
	return sb.String()
}

// obsSink keeps the measured runs' results live so no refactor can elide
// the benchmarked work.
var obsSink uint64

// dispatchModule builds a register-only arithmetic loop: after alloca
// promotion the body is pure SSA dispatch with no memory traffic, so steps
// per second measure the interpreter's instruction-dispatch throughput.
func dispatchModule(n int64) *ir.Module {
	mod := ir.NewModule("dispatch")
	f := mod.NewFunc("main", ir.I64)
	bd := ir.NewBuilder(f)
	acc := bd.Local("acc")
	bd.St(bd.I(0), acc)
	bd.For("i", bd.I(0), bd.I(n), func(iv *ir.Instr) {
		i := bd.Ld(iv)
		s := bd.Ld(acc)
		t1 := bd.Mul(i, bd.I(3))
		t2 := bd.Xor(s, t1)
		t3 := bd.Shl(t2, bd.I(1))
		t4 := bd.Add(t3, bd.LShr(t2, bd.I(17)))
		t5 := bd.Sub(t4, bd.And(i, bd.I(255)))
		bd.St(t5, acc)
	})
	bd.Ret(bd.Ld(acc))
	ir.PromoteAllocas(f)
	f.Recompute()
	return mod
}

// obsOverheadRound interprets the dispatch module once with prof attached
// (nil = baseline) and returns executed instructions and wall time.
func obsOverheadRound(prof *interp.OpProfiler) (int64, time.Duration, error) {
	mod := dispatchModule(400000)
	it := interp.New(mod, vm.NewAddressSpace())
	it.Prof = prof
	t0 := time.Now()
	v, err := it.Run()
	wall := time.Since(t0)
	obsSink += v
	return it.Steps, wall, err
}

// RunObsOverhead measures the sampling profiler's dispatch overhead. Rounds
// alternate baseline/profiled so slow drift affects both legs equally, and
// each leg's estimate is the minimum ns/instr over its rounds — the
// standard microbenchmark reduction, since interference (scheduler, GC,
// frequency scaling) only ever adds time.
func RunObsOverhead() (*ObsOverheadReport, error) {
	const rounds = 8
	prof := interp.NewOpProfiler(interp.DefaultSampleEvery)
	var baseOps, profOps int64
	baseBest := math.Inf(1)
	profBest := math.Inf(1)
	// One untimed warmup per leg primes code paths and the page allocator.
	// The warmup uses a throwaway profiler so the measured one's executed
	// total reflects only the timed rounds.
	if _, _, err := obsOverheadRound(nil); err != nil {
		return nil, fmt.Errorf("obsoverhead warmup: %w", err)
	}
	if _, _, err := obsOverheadRound(interp.NewOpProfiler(interp.DefaultSampleEvery)); err != nil {
		return nil, fmt.Errorf("obsoverhead warmup: %w", err)
	}
	for i := 0; i < rounds; i++ {
		ops, wall, err := obsOverheadRound(nil)
		if err != nil {
			return nil, fmt.Errorf("obsoverhead baseline: %w", err)
		}
		baseOps += ops
		if ns := float64(wall.Nanoseconds()) / float64(ops); ns < baseBest {
			baseBest = ns
		}
		ops, wall, err = obsOverheadRound(prof)
		if err != nil {
			return nil, fmt.Errorf("obsoverhead profiled: %w", err)
		}
		profOps += ops
		if ns := float64(wall.Nanoseconds()) / float64(ops); ns < profBest {
			profBest = ns
		}
	}
	rep := &ObsOverheadReport{
		SampleEvery:      interp.DefaultSampleEvery,
		BaselineOps:      baseOps,
		ProfiledOps:      profOps,
		ProfiledExecuted: prof.TotalExecuted(),
		BaselineNSPerOp:  baseBest,
		ProfiledNSPerOp:  profBest,
	}
	if rep.BaselineNSPerOp > 0 {
		rep.OverheadPct = (rep.ProfiledNSPerOp - rep.BaselineNSPerOp) /
			rep.BaselineNSPerOp * 100
	}
	if err := measureServiceOverhead(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// obsServiceJob pushes one job through svc and returns its wall time.
// Serial submission keeps queue wait out of the measurement: the cost
// under test is the per-job service machinery (ring allocation, event
// emission, phase summarization), not scheduling.
func obsServiceJob(svc *service.Service) (time.Duration, error) {
	t0 := time.Now()
	job, err := svc.Submit("bench", "dijkstra", "train")
	if err != nil {
		return 0, err
	}
	<-job.Done()
	wall := time.Since(t0)
	v := svc.View(job)
	if v.State != service.StateDone {
		return 0, fmt.Errorf("job %s %s: %s", job.ID, v.State, v.Error)
	}
	return wall, nil
}

// measureServiceOverhead fills in the service-path tracing rows: the same
// job stream through two real services, one with per-job tracing disabled
// and one with the always-on default. Each iteration runs a small batch
// of jobs through both legs back to back (order flipping every iteration)
// and the overhead estimate is the median of the per-pair batch-mean
// deltas over the median baseline: batching averages out per-job
// scheduling jitter, which is far larger than the per-job tracing cost,
// while pairing cancels the slow host drift the batches share.
func measureServiceOverhead(rep *ObsOverheadReport) error {
	const (
		batches      = 16
		jobsPerBatch = 6
		benchSeed    = 0xC0FFEE
		poolWorkers  = 4
	)
	mk := func(traceCap int) *service.Service {
		return service.New(service.Config{
			Workers: poolWorkers, Concurrency: 1,
			TraceCapacity: traceCap, Seed: benchSeed,
		})
	}
	baseSvc, tracedSvc := mk(-1), mk(0)
	defer baseSvc.Drain()
	defer tracedSvc.Drain()
	// Untimed warmups absorb program compilation and pool warming, which
	// would otherwise land entirely on each leg's first batch.
	for i := 0; i < 2; i++ {
		if _, err := obsServiceJob(baseSvc); err != nil {
			return fmt.Errorf("obsoverhead service warmup: %w", err)
		}
		if _, err := obsServiceJob(tracedSvc); err != nil {
			return fmt.Errorf("obsoverhead service warmup: %w", err)
		}
	}
	batch := func(svc *service.Service) (float64, error) {
		var total time.Duration
		for j := 0; j < jobsPerBatch; j++ {
			wall, err := obsServiceJob(svc)
			if err != nil {
				return 0, err
			}
			total += wall
		}
		return float64(total.Nanoseconds()) / jobsPerBatch, nil
	}
	baseNS := make([]float64, 0, batches)
	deltaNS := make([]float64, 0, batches)
	for i := 0; i < batches; i++ {
		legs := []*service.Service{baseSvc, tracedSvc}
		if i%2 == 1 {
			legs[0], legs[1] = legs[1], legs[0]
		}
		var pairNS [2]float64
		for li, svc := range legs {
			ns, err := batch(svc)
			if err != nil {
				return fmt.Errorf("obsoverhead service leg: %w", err)
			}
			pairNS[li] = ns
		}
		b, t := pairNS[0], pairNS[1]
		if i%2 == 1 {
			b, t = t, b
		}
		baseNS = append(baseNS, b)
		deltaNS = append(deltaNS, t-b)
	}
	base := median(baseNS)
	delta := median(deltaNS)
	rep.ServiceJobs = batches * jobsPerBatch
	rep.ServiceBaselineNSPerJob = base
	rep.ServiceTracedNSPerJob = base + delta
	if base > 0 {
		rep.ServiceOverheadPct = delta / base * 100
	}
	return nil
}

// median returns the middle value of xs (mean of the middle two for even
// lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
