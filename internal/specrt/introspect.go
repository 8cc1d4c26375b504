package specrt

// Live introspection: atomic Stats snapshots, misspeculation attribution
// (faulting address -> owning allocation site), the /spec JSON snapshot,
// and pull-style publication into an obs.Registry. Everything here is off
// the speculative hot path: sites register on master-side allocation,
// attribution happens only when a misspeculation is flagged, and metric
// collectors run only at scrape time.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/vm"
)

// Snapshot returns an atomically loaded copy of the stats. Workers mutate
// every field with atomic adds while a region runs, so any reporting that
// may overlap execution (a /metrics scrape) must read through here rather
// than copying the struct.
func (s *Stats) Snapshot() Stats {
	return Stats{
		Invocations:         atomic.LoadInt64(&s.Invocations),
		Checkpoints:         atomic.LoadInt64(&s.Checkpoints),
		Misspecs:            atomic.LoadInt64(&s.Misspecs),
		Recoveries:          atomic.LoadInt64(&s.Recoveries),
		SequentialFallbacks: atomic.LoadInt64(&s.SequentialFallbacks),
		PrivReadBytes:       atomic.LoadInt64(&s.PrivReadBytes),
		PrivWriteBytes:      atomic.LoadInt64(&s.PrivWriteBytes),
		PrivReadChecks:      atomic.LoadInt64(&s.PrivReadChecks),
		PrivWriteChecks:     atomic.LoadInt64(&s.PrivWriteChecks),
		SeparationChecks:    atomic.LoadInt64(&s.SeparationChecks),
		Predictions:         atomic.LoadInt64(&s.Predictions),
		DeferredIO:          atomic.LoadInt64(&s.DeferredIO),
		ProvenRangeBytes:    atomic.LoadInt64(&s.ProvenRangeBytes),
		SepAuditViolations:  atomic.LoadInt64(&s.SepAuditViolations),
		WarmSpawns:          atomic.LoadInt64(&s.WarmSpawns),
		SpawnNS:             atomic.LoadInt64(&s.SpawnNS),
		JoinNS:              atomic.LoadInt64(&s.JoinNS),
		CheckpointNS:        atomic.LoadInt64(&s.CheckpointNS),
		PrivReadNS:          atomic.LoadInt64(&s.PrivReadNS),
		PrivWriteNS:         atomic.LoadInt64(&s.PrivWriteNS),
		WorkerBusyNS:        atomic.LoadInt64(&s.WorkerBusyNS),
		RegionWallNS:        atomic.LoadInt64(&s.RegionWallNS),
	}
}

// misspecKey identifies one row of the misspeculation attribution table.
type misspecKey struct {
	region string
	cause  string
	site   string
	object string
}

// trackSite records [addr, addr+size) as owned by the named allocation
// site. Called for master-side allocations and globals only.
func (rt *RT) trackSite(addr, size uint64, name string) {
	if addr == 0 || size == 0 {
		return
	}
	rt.siteMu.Lock()
	rt.siteMap.Insert(addr, addr+size, name)
	rt.siteMu.Unlock()
}

// untrackSite drops the allocation owning addr, if tracked.
func (rt *RT) untrackSite(addr uint64) {
	rt.siteMu.Lock()
	rt.siteMap.Remove(addr)
	rt.siteMu.Unlock()
}

// siteFor attributes a faulting address to its owning allocation site, or
// to "<heap>:?" when the owner is unknown (worker-local allocations are
// not tracked).
func (rt *RT) siteFor(addr uint64) string {
	rt.siteMu.Lock()
	name, ok := rt.siteMap.Lookup(addr)
	rt.siteMu.Unlock()
	if ok {
		return name
	}
	return ir.HeapOf(addr).String() + ":?"
}

// noteMisspec aggregates one detected misspeculation into the per-site
// table. addr is the faulting address (0 when the violation has no
// specific location, e.g. injected misspeculation).
func (rt *RT) noteMisspec(region, cause, site string, addr uint64) {
	obj := ""
	if addr != 0 {
		obj = rt.siteFor(addr)
	}
	k := misspecKey{region: region, cause: cause, site: site, object: obj}
	rt.missMu.Lock()
	rt.missTable[k]++
	rt.missMu.Unlock()
}

// MisspecSiteRow is one aggregated misspeculation-attribution row: how
// often a given cause fired for a given owning object, and where.
type MisspecSiteRow struct {
	// Region is the parallel region function the misspeculation occurred in.
	Region string `json:"region"`
	// Cause is the violated speculative property.
	Cause string `json:"cause"`
	// Site is the IR instruction that detected the violation, if any.
	Site string `json:"site,omitempty"`
	// Object names the allocation site (or global) owning the faulting
	// address; "<heap>:?" when unknown, "" when the cause has no address.
	Object string `json:"object,omitempty"`
	// Count is the number of misspeculations attributed to this row.
	Count int64 `json:"count"`
}

// MisspecSites returns the aggregated misspeculation attribution table,
// most frequent first.
func (rt *RT) MisspecSites() []MisspecSiteRow {
	rt.missMu.Lock()
	rows := make([]MisspecSiteRow, 0, len(rt.missTable))
	for k, n := range rt.missTable {
		rows = append(rows, MisspecSiteRow{
			Region: k.region, Cause: k.cause, Site: k.site, Object: k.object, Count: n,
		})
	}
	rt.missMu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Region != b.Region {
			return a.Region < b.Region
		}
		if a.Cause != b.Cause {
			return a.Cause < b.Cause
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Site < b.Site
	})
	return rows
}

// FormatMisspecSites renders the attribution table for terminal output
// (the privateer -why-misspec report).
func FormatMisspecSites(rows []MisspecSiteRow) string {
	if len(rows) == 0 {
		return "no misspeculations recorded\n"
	}
	var sb strings.Builder
	sb.WriteString("Misspeculations by allocation site\n\n")
	header := []string{"count", "region", "cause", "object", "site"}
	widths := make([]int, len(header))
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Count), r.Region, r.Cause, r.Object, r.Site,
		})
	}
	for i, h := range header {
		widths[i] = len(h)
		for _, row := range cells {
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
	}
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(header)
	for i := range header {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", widths[i]))
	}
	sb.WriteString("\n")
	for _, row := range cells {
		writeRow(row)
	}
	return sb.String()
}

// SpecSnapshot is the live speculation-state document served at /spec.
type SpecSnapshot struct {
	// Stats is an atomic snapshot of the runtime counters.
	Stats Stats `json:"stats"`
	// Heaps is the master space's per-heap occupancy, in heap-tag order.
	Heaps []vm.HeapOcc `json:"heaps"`
	// Workers is the configured worker count.
	Workers int `json:"workers"`
	// MisspecRate is detected misspeculations per constructed checkpoint.
	MisspecRate float64 `json:"misspec_rate"`
	// MisspecSites is the attribution table, most frequent first.
	MisspecSites []MisspecSiteRow `json:"misspec_sites"`
}

// SpecSnapshot assembles the live speculation-state document. Safe to call
// from a scrape goroutine while a region executes.
func (rt *RT) SpecSnapshot() SpecSnapshot {
	st := rt.Stats.Snapshot()
	rate := 0.0
	if st.Checkpoints > 0 {
		rate = float64(st.Misspecs) / float64(st.Checkpoints)
	}
	return SpecSnapshot{
		Stats:        st,
		Heaps:        rt.occ.Snapshot(),
		Workers:      rt.Cfg.Workers,
		MisspecRate:  rate,
		MisspecSites: rt.MisspecSites(),
	}
}

// latestRT tracks the most recently constructed metrics-enabled runtime:
// the one a live scrape should observe. Collectors and LatestSpec follow
// it, so long-lived introspection servers (privateer-bench -serve) always
// report the current run.
var latestRT atomic.Pointer[RT]

// publishedRegistries remembers which registries already carry the
// runtime's collectors, so constructing many runtimes against one registry
// (a benchmark suite) does not stack duplicate collectors.
var publishedRegistries sync.Map

// LatestSpec returns the newest metrics-enabled runtime's SpecSnapshot,
// or an empty document when none exists yet. It is the provider wired into
// obs.Server's /spec endpoint.
func LatestSpec() any {
	rt := latestRT.Load()
	if rt == nil {
		return struct{}{}
	}
	return rt.SpecSnapshot()
}

// publishMetrics registers the runtime's pull-style collectors on reg. The
// instrumented code pays nothing between scrapes: collectors read the
// runtime's atomics when /metrics or /vars is served. Histogram handles
// are per-runtime; the collector set is installed once per registry and
// follows latestRT.
func (rt *RT) publishMetrics(reg *obs.Registry) {
	rt.histRegionWall = reg.Histogram("privateer_region_wall_ns",
		"Wall-clock nanoseconds per parallel-region invocation.", nil)
	rt.histInstall = reg.Histogram("privateer_install_bytes",
		"Bytes applied to the master state per checkpoint install.", nil)
	if _, dup := publishedRegistries.LoadOrStore(reg, true); dup {
		return
	}

	type statCol struct {
		c   obs.Counter
		get func(*Stats) int64
	}
	mk := func(name, help string, get func(*Stats) int64) statCol {
		return statCol{reg.Counter("privateer_"+name, help), get}
	}
	cols := []statCol{
		mk("invocations_total", "Parallel-region entries.",
			func(s *Stats) int64 { return s.Invocations }),
		mk("checkpoints_total", "Checkpoint objects constructed.",
			func(s *Stats) int64 { return s.Checkpoints }),
		mk("misspeculations_total", "Detected misspeculations, including injected.",
			func(s *Stats) int64 { return s.Misspecs }),
		mk("recoveries_total", "Sequential recovery episodes.",
			func(s *Stats) int64 { return s.Recoveries }),
		mk("sequential_fallbacks_total", "Invocations abandoned to sequential execution.",
			func(s *Stats) int64 { return s.SequentialFallbacks }),
		mk("priv_read_bytes_total", "Privacy-checked read volume.",
			func(s *Stats) int64 { return s.PrivReadBytes }),
		mk("priv_write_bytes_total", "Privacy-checked write volume.",
			func(s *Stats) int64 { return s.PrivWriteBytes }),
		mk("priv_read_checks_total", "Dynamic privacy read checks.",
			func(s *Stats) int64 { return s.PrivReadChecks }),
		mk("priv_write_checks_total", "Dynamic privacy write checks.",
			func(s *Stats) int64 { return s.PrivWriteChecks }),
		mk("separation_checks_total", "Dynamic heap-separation checks.",
			func(s *Stats) int64 { return s.SeparationChecks }),
		mk("predictions_total", "Dynamic value-prediction checks.",
			func(s *Stats) int64 { return s.Predictions }),
		mk("deferred_io_total", "Buffered output operations.",
			func(s *Stats) int64 { return s.DeferredIO }),
		mk("proven_range_bytes_total", "Bytes wholesale-installed from statically-privatized ranges.",
			func(s *Stats) int64 { return s.ProvenRangeBytes }),
		mk("sep_audit_violations_total", "Static separation claims contradicted by the SepAudit oracle.",
			func(s *Stats) int64 { return s.SepAuditViolations }),
		mk("warm_spawns_total", "Worker spawns satisfied from the warmed pool.",
			func(s *Stats) int64 { return s.WarmSpawns }),
		mk("spawn_ns_total", "Wall-clock worker spawn time.",
			func(s *Stats) int64 { return s.SpawnNS }),
		mk("join_ns_total", "Master-side validate/install/commit critical path.",
			func(s *Stats) int64 { return s.JoinNS }),
		mk("checkpoint_ns_total", "Wall-clock worker checkpoint-merge time.",
			func(s *Stats) int64 { return s.CheckpointNS }),
		mk("worker_busy_ns_total", "Total wall-clock worker execution time.",
			func(s *Stats) int64 { return s.WorkerBusyNS }),
		mk("region_wall_ns_total", "Wall-clock time inside parallel regions.",
			func(s *Stats) int64 { return s.RegionWallNS }),
	}

	var liveBytes, liveObjs, allocBytes [ir.NumHeaps]obs.Gauge
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		name := h.String()
		liveBytes[h] = reg.Gauge("privateer_heap_live_bytes",
			"Live (rounded) bytes per logical heap of the master space.", "heap", name)
		liveObjs[h] = reg.Gauge("privateer_heap_live_objects",
			"Live allocations per logical heap of the master space.", "heap", name)
		allocBytes[h] = reg.Gauge("privateer_heap_alloc_bytes_total",
			"Cumulative bytes ever allocated per logical heap of the master space.", "heap", name)
	}
	type vmStatCol struct {
		c   obs.Counter
		get func(*vm.Stats) *int64
	}
	mkvm := func(name, help string, get func(*vm.Stats) *int64) vmStatCol {
		return vmStatCol{reg.Counter("privateer_vm_"+name, help), get}
	}
	vmCols := []vmStatCol{
		mkvm("pages_mapped_total", "Demand-zero page instantiations (master space and its worker fleet).",
			func(s *vm.Stats) *int64 { return &s.PagesMapped }),
		mkvm("pages_copied_total", "Copy-on-write page duplications (master space and its worker fleet).",
			func(s *vm.Stats) *int64 { return &s.PagesCopied }),
		mkvm("nodes_copied_total", "Radix page-table nodes path-copied by range-COW splits.",
			func(s *vm.Stats) *int64 { return &s.NodesCopied }),
		mkvm("summary_hits_total", "Subtrees skipped outright by dirty-summary-guided page walks.",
			func(s *vm.Stats) *int64 { return &s.SummaryHits }),
	}
	ptResident := reg.Gauge("privateer_vm_resident_pages",
		"Instantiated pages in the master radix page table (refreshed at invocation boundaries).")
	ptNodes := reg.Gauge("privateer_vm_radix_nodes",
		"Reachable radix page-table nodes of the master space (refreshed at invocation boundaries).")
	ptDirty := reg.Gauge("privateer_vm_dirty_pages",
		"Master pages dirtied since its last clone (refreshed at invocation boundaries).")
	reg.GaugeFunc("privateer_misspec_rate",
		"Detected misspeculations per constructed checkpoint.", func() float64 {
			rt := latestRT.Load()
			if rt == nil {
				return 0
			}
			st := rt.Stats.Snapshot()
			if st.Checkpoints == 0 {
				return 0
			}
			return float64(st.Misspecs) / float64(st.Checkpoints)
		})

	reg.RegisterCollector(func() {
		rt := latestRT.Load()
		if rt == nil {
			return
		}
		st := rt.Stats.Snapshot()
		for _, sc := range cols {
			sc.c.Set(sc.get(&st))
		}
		for i, row := range rt.occ.Snapshot() {
			liveBytes[i].Set(row.LiveBytes)
			liveObjs[i].Set(row.LiveObjects)
			allocBytes[i].Set(row.AllocBytes)
		}
		if vs := rt.vmStats.Load(); vs != nil {
			for _, sc := range vmCols {
				sc.c.Set(atomic.LoadInt64(sc.get(vs)))
			}
		}
		if pt := rt.ptStats.Load(); pt != nil {
			ptResident.Set(pt.ResidentPages)
			ptNodes.Set(pt.Nodes)
			ptDirty.Set(pt.DirtyPages)
		}
		for _, ri := range rt.regions {
			ts := ri.TStats
			for _, c := range []struct {
				name string
				n    int
			}{
				{"joined", ts.Joined},
				{"eliminated", ts.Eliminated},
				{"invariant", ts.InvPromoted},
				{"dense", ts.DensePromoted},
				{"sparse", ts.SparsePromoted},
				{"redundant_uo", ts.HeapRedundantUO},
			} {
				reg.Counter("privateer_postprocess_sites_total",
					"Check sites rewritten by the transform postprocess pass, by category (static).",
					"region", ri.Outline.LoopName, "category", c.name).Set(int64(c.n))
			}
			for _, c := range []struct {
				name string
				n    int
			}{
				{"checks_discharged", ts.StaticProven},
				{"priv_marks_dropped", ts.StaticPrivMarksDropped},
				{"redux_marks_dropped", ts.StaticReduxMarksDropped},
			} {
				reg.Counter("privateer_static_sep_total",
					"Dynamic machinery discharged by the static separation prover, by category (static).",
					"region", ri.Outline.LoopName, "category", c.name).Set(int64(c.n))
			}
		}
		for _, r := range rt.MisspecSites() {
			reg.Counter("privateer_misspec_site_total",
				"Misspeculations attributed to one owning allocation site.",
				"region", r.Region, "cause", r.Cause,
				"object", r.Object, "site", r.Site).Set(r.Count)
		}
		if p := rt.Cfg.OpProf; p != nil {
			for _, r := range p.Ops() {
				reg.Counter("privateer_op_executed_total",
					"Estimated executed instructions per opcode (sampling profiler).",
					"op", r.Op).Set(r.Executed)
				reg.Counter("privateer_op_sampled_ns_total",
					"Sampled wall time attributed per opcode.",
					"op", r.Op).Set(r.SampledNS)
			}
			for _, f := range p.Funcs() {
				reg.Counter("privateer_fn_calls_total",
					"Completed activations per IR function.", "fn", f.Fn).Set(f.Calls)
				reg.Counter("privateer_fn_steps_total",
					"Inclusive executed instructions per IR function.", "fn", f.Fn).Set(f.Steps)
				reg.Counter("privateer_fn_sampled_ns_total",
					"Sampled wall time attributed per IR function.", "fn", f.Fn).Set(f.SampledNS)
			}
		}
	})
}
