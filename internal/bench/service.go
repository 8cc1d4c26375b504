package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/progs"
	"privateer/internal/service"
	"privateer/internal/specrt"
)

// The service experiment measures the multi-tenant region service under a
// synthetic many-client load: a fleet of clients (one tenant each) submits
// region invocations round-robin over the benchmark programs, retrying on
// admission backpressure, while a sampler records queue depth over time.
// Every job's output is compared against a solo run of the same program
// through the same parallel pipeline — the service must be bit-identical
// under contention. A second row family isolates what the warmed worker
// pool buys: per program, accumulated Stats.SpawnNS on a cold runtime
// versus one reusing pooled address spaces.

// Service experiment shape: the full configuration drives serviceClients
// clients (the ISSUE's 1k-client load); quick shrinks the fleet for CI.
// Each client submits serviceJobsPerClient jobs; spawn rows repeat each
// configuration serviceSpawnReps times and keep the minimum.
const (
	serviceClients       = 1000
	serviceClientsQuick  = 64
	serviceJobsPerClient = 2
	serviceSpawnReps     = 3
	serviceWorkers       = 4
	serviceConcurrency   = 8
	serviceQueueDepth    = 256
)

// ServiceQueueSample is one queue-depth observation during the load run.
type ServiceQueueSample struct {
	// AtMS is milliseconds since the load began.
	AtMS int64 `json:"at_ms"`
	// Depth is the admitted-but-not-running job count at that instant.
	Depth int `json:"depth"`
	// Inflight is the number of invocations executing at that instant.
	Inflight int64 `json:"inflight"`
}

// ServiceSpawnRow isolates the warmed-pool benefit for one program:
// accumulated worker-spawn time with cold clones versus pooled reuse.
type ServiceSpawnRow struct {
	// Name and Input identify the workload.
	Name  string `json:"name"`
	Input string `json:"input"`
	// ColdSpawnNS is Stats.SpawnNS for a run that clones every worker
	// space from scratch (no pool); WarmSpawnNS is the same figure for a
	// run drawing from an already-warmed pool. Minima over reps.
	ColdSpawnNS int64 `json:"cold_spawn_ns"`
	WarmSpawnNS int64 `json:"warm_spawn_ns"`
	// SpawnSpeedup is ColdSpawnNS / WarmSpawnNS.
	SpawnSpeedup float64 `json:"spawn_speedup"`
	// WarmSpawns counts worker spawns the warm run satisfied from the
	// pool (must be > 0 for the row to mean anything).
	WarmSpawns int64 `json:"warm_spawns"`
	// Identical reports whether the warm run reproduced the cold run's
	// return value and output byte for byte.
	Identical bool `json:"identical"`
}

// ServiceReport is the service experiment's result document
// (BENCH_service.json in CI).
type ServiceReport struct {
	// Clients, Workers, Concurrency and QueueDepth echo the load shape.
	Clients     int `json:"clients"`
	Workers     int `json:"workers"`
	Concurrency int `json:"concurrency"`
	QueueDepth  int `json:"queue_depth"`
	// Jobs is the number of invocations completed by the load run.
	Jobs int `json:"jobs"`
	// DurationNS is the load run's wall clock; RegionsPerSec the
	// resulting throughput.
	DurationNS    int64   `json:"duration_ns"`
	RegionsPerSec float64 `json:"regions_per_sec"`
	// P50NS/P99NS/P999NS are submit-to-done latency percentiles.
	P50NS  int64 `json:"p50_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`
	// Retries counts submissions refused by backpressure (queue-full or
	// quota) and retried by the clients.
	Retries int64 `json:"retries"`
	// Mismatches counts jobs whose output diverged from the solo
	// reference (must be 0).
	Mismatches int `json:"mismatches"`
	// PoolReuses totals warmed-pool reuse across all programs during the
	// load run.
	PoolReuses int64 `json:"pool_reuses"`
	// MaxQueueDepth is the deepest queue observation; Queue holds the
	// sampled depth-over-time series.
	MaxQueueDepth int                  `json:"max_queue_depth"`
	Queue         []ServiceQueueSample `json:"queue"`
	// Spawn holds the per-program warm-versus-cold spawn-cost rows.
	Spawn []ServiceSpawnRow `json:"spawn"`
}

// JSON renders the report machine-readably.
func (r *ServiceReport) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Format renders the report as aligned tables with a headline line.
func (r *ServiceReport) Format() string {
	var sb strings.Builder
	sb.WriteString("Multi-tenant region service under synthetic load\n\n")
	sb.WriteString(fmt.Sprintf(
		"load: %d clients x %d jobs, %d runner(s) x %d workers, queue depth %d\n",
		r.Clients, serviceJobsPerClient, r.Concurrency, r.Workers, r.QueueDepth))
	sb.WriteString(fmt.Sprintf(
		"throughput: %d regions in %.2fs = %.1f regions/sec (%d backpressure retries)\n",
		r.Jobs, float64(r.DurationNS)/1e9, r.RegionsPerSec, r.Retries))
	sb.WriteString(fmt.Sprintf("latency: p50 %.2fms  p99 %.2fms  p99.9 %.2fms\n",
		float64(r.P50NS)/1e6, float64(r.P99NS)/1e6, float64(r.P999NS)/1e6))
	sb.WriteString(fmt.Sprintf("queue: max depth %d over %d samples; pool reuses %d\n",
		r.MaxQueueDepth, len(r.Queue), r.PoolReuses))
	if r.Mismatches == 0 {
		sb.WriteString("isolation: every tenant output bit-identical to its solo run\n")
	} else {
		sb.WriteString(fmt.Sprintf("isolation: %d OUTPUT MISMATCHES\n", r.Mismatches))
	}

	rows := make([][]string, 0, len(r.Spawn))
	for _, m := range r.Spawn {
		id := "yes"
		if !m.Identical {
			id = "NO"
		}
		rows = append(rows, []string{
			m.Name, m.Input,
			fmt.Sprintf("%.1f", float64(m.ColdSpawnNS)/1e3),
			fmt.Sprintf("%.1f", float64(m.WarmSpawnNS)/1e3),
			fmt.Sprintf("%.1fx", m.SpawnSpeedup),
			fmt.Sprintf("%d", m.WarmSpawns),
			id,
		})
	}
	sb.WriteString("\nwarmed pool: accumulated worker-spawn cost, cold clone vs pooled reuse\n")
	sb.WriteString(table([]string{
		"program", "input", "cold spawn us", "warm spawn us", "speedup",
		"warm spawns", "=cold"}, rows))
	return sb.String()
}

// percentile returns the p-quantile (0..1) of sorted latencies.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// serviceLoad drives the client fleet against an in-process service and
// fills in the report's throughput, latency, queue and isolation fields.
func serviceLoad(rep *ServiceReport, programs []*progs.Program, inputName string) error {
	svc := service.New(service.Config{
		Workers:     rep.Workers,
		Concurrency: rep.Concurrency,
		QueueDepth:  rep.QueueDepth,
	})
	defer svc.Drain()

	// Solo references: one quiet run per program before the load begins.
	refs := make(map[string]service.JobView, len(programs))
	for _, p := range programs {
		j, err := svc.Submit("reference", p.Name, inputName)
		if err != nil {
			return fmt.Errorf("solo %s: %w", p.Name, err)
		}
		<-j.Done()
		v := svc.View(j)
		if v.State != service.StateDone {
			return fmt.Errorf("solo %s: %s (%s)", p.Name, v.State, v.Error)
		}
		refs[p.Name] = v
	}

	// Queue-depth sampler, running until the load finishes.
	stopSampler := make(chan struct{})
	var samplerDone sync.WaitGroup
	var mu sync.Mutex // guards rep.Queue and rep.MaxQueueDepth
	start := time.Now()
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				sn := svc.Snapshot()
				mu.Lock()
				rep.Queue = append(rep.Queue, ServiceQueueSample{
					AtMS:     time.Since(start).Milliseconds(),
					Depth:    sn.QueueDepth,
					Inflight: sn.Inflight,
				})
				if sn.QueueDepth > rep.MaxQueueDepth {
					rep.MaxQueueDepth = sn.QueueDepth
				}
				mu.Unlock()
			}
		}
	}()

	// The client fleet: every client is its own tenant and submits
	// serviceJobsPerClient jobs round-robin over the programs, retrying
	// (briefly parked) whenever admission pushes back.
	var retries atomic.Int64
	var mismatches atomic.Int64
	latencies := make([]int64, rep.Clients*serviceJobsPerClient)
	var wg sync.WaitGroup
	for c := 0; c < rep.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("client-%04d", c)
			for k := 0; k < serviceJobsPerClient; k++ {
				p := programs[(c+k)%len(programs)]
				var job *service.Job
				for {
					j, err := svc.Submit(tenant, p.Name, inputName)
					if err == nil {
						job = j
						break
					}
					var full *service.QueueFullError
					var quota *service.QuotaError
					if errors.As(err, &full) || errors.As(err, &quota) {
						retries.Add(1)
						time.Sleep(time.Millisecond)
						continue
					}
					mismatches.Add(1) // hard admission failure: count as broken
					return
				}
				t0 := time.Now()
				<-job.Done()
				latencies[c*serviceJobsPerClient+k] = time.Since(t0).Nanoseconds()
				v := svc.View(job)
				ref := refs[p.Name]
				if v.State != service.StateDone || v.Ret != ref.Ret || v.Output != ref.Output {
					mismatches.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	rep.DurationNS = time.Since(start).Nanoseconds()
	close(stopSampler)
	samplerDone.Wait()

	rep.Jobs = rep.Clients * serviceJobsPerClient
	rep.RegionsPerSec = float64(rep.Jobs) / (float64(rep.DurationNS) / 1e9)
	rep.Retries = retries.Load()
	rep.Mismatches = int(mismatches.Load())
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50NS = percentile(latencies, 0.50)
	rep.P99NS = percentile(latencies, 0.99)
	rep.P999NS = percentile(latencies, 0.999)
	for _, pv := range svc.Snapshot().Programs {
		rep.PoolReuses += pv.Pool.Reuses
	}
	// Long load runs accumulate thousands of 5 ms samples; thin the series
	// to a bounded depth-over-time curve (MaxQueueDepth is exact either way).
	const maxSamples = 256
	if n := len(rep.Queue); n > maxSamples {
		thin := make([]ServiceQueueSample, 0, maxSamples)
		for i := 0; i < maxSamples; i++ {
			thin = append(thin, rep.Queue[i*n/maxSamples])
		}
		rep.Queue = thin
	}
	return nil
}

// serviceSpawnRow measures one program's accumulated worker-spawn cost in
// both spawn modes. Cold runs clone from scratch each time; the warm
// figure comes from a pool pre-warmed by a discarded priming run.
func serviceSpawnRow(p *progs.Program, inputName string) (ServiceSpawnRow, error) {
	in, err := p.Input(inputName)
	if err != nil {
		return ServiceSpawnRow{}, err
	}
	row := ServiceSpawnRow{Name: p.Name, Input: in.Name}
	par, err := core.Parallelize(p.Build(in), core.Options{})
	if err != nil {
		return row, fmt.Errorf("%s parallelize: %w", p.Name, err)
	}
	prog := interp.SharedProgram(par.Mod)

	var coldRet, warmRet uint64
	var coldOut, warmOut string
	row.ColdSpawnNS = -1
	for rep := 0; rep < serviceSpawnReps; rep++ {
		rt, ret, err := core.Run(par, specrt.Config{Workers: serviceWorkers, Program: prog})
		if err != nil {
			return row, fmt.Errorf("%s cold: %w", p.Name, err)
		}
		coldRet, coldOut = ret, rt.Output()
		if ns := rt.Stats.Snapshot().SpawnNS; row.ColdSpawnNS < 0 || ns < row.ColdSpawnNS {
			row.ColdSpawnNS = ns
		}
	}

	pool := specrt.NewWorkerPool(0)
	row.WarmSpawnNS = -1
	for rep := 0; rep < serviceSpawnReps+1; rep++ {
		rt, ret, err := core.Run(par, specrt.Config{Workers: serviceWorkers, Program: prog, Pool: pool})
		if err != nil {
			return row, fmt.Errorf("%s warm: %w", p.Name, err)
		}
		if rep == 0 {
			continue // priming run: the pool is still cold
		}
		warmRet, warmOut = ret, rt.Output()
		st := rt.Stats.Snapshot()
		if row.WarmSpawnNS < 0 || st.SpawnNS < row.WarmSpawnNS {
			row.WarmSpawnNS = st.SpawnNS
			row.WarmSpawns = st.WarmSpawns
		}
	}
	row.SpawnSpeedup = nsRatio(row.ColdSpawnNS, row.WarmSpawnNS)
	row.Identical = coldRet == warmRet && coldOut == warmOut
	return row, nil
}

// RunService measures the region service: the many-client load run plus
// one warm-versus-cold spawn row per configured benchmark. quick shrinks
// the client fleet; the input class comes from cfg (train under -quick).
func RunService(cfg Config, quick bool) (*ServiceReport, error) {
	rep := &ServiceReport{
		Clients:     serviceClients,
		Workers:     serviceWorkers,
		Concurrency: serviceConcurrency,
		QueueDepth:  serviceQueueDepth,
	}
	if quick {
		rep.Clients = serviceClientsQuick
	}
	inputName := cfg.Input
	var selected []*progs.Program
	for _, p := range progs.All() {
		if len(cfg.Programs) > 0 && !containsString(cfg.Programs, p.Name) {
			continue
		}
		selected = append(selected, p)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no benchmarks selected")
	}
	if err := serviceLoad(rep, selected, inputName); err != nil {
		return nil, err
	}
	for _, p := range selected {
		row, err := serviceSpawnRow(p, inputName)
		if err != nil {
			return nil, err
		}
		rep.Spawn = append(rep.Spawn, row)
	}
	return rep, nil
}
