package specrt

// Live introspection: atomic Stats snapshots, misspeculation attribution
// (faulting address -> owning allocation site), and push-style publication
// into an obs.Registry. Everything here is off the speculative hot path:
// sites register on master-side allocation, attribution happens only when a
// misspeculation is flagged, and the runtime pushes its metrics only at
// quiescent points, after the workers of an invocation have joined.

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/vm"
)

// Snapshot returns an atomically loaded copy of the stats. Workers mutate
// every field with atomic adds while a region runs, so any reader that may
// overlap execution must read through here rather than copying the struct.
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
// table and the privateer_misspec_site_total counter (a no-op handle
// without Config.Metrics). addr is the faulting address (0 when the violation has no
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
	rt.Cfg.Metrics.Counter("privateer_misspec_site_total",
		"Misspeculations attributed to one owning allocation site.",
		"region", region, "cause", cause, "object", obj, "site", site).Inc()
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

// statCounters lists the Stats fields published as privateer_* counters.
var statCounters = []struct {
	name, help string
	get        func(*Stats) int64
}{
	{"invocations_total", "Parallel-region entries.",
		func(s *Stats) int64 { return s.Invocations }},
	{"checkpoints_total", "Checkpoint objects constructed.",
		func(s *Stats) int64 { return s.Checkpoints }},
	{"misspeculations_total", "Detected misspeculations, including injected.",
		func(s *Stats) int64 { return s.Misspecs }},
	{"recoveries_total", "Sequential recovery episodes.",
		func(s *Stats) int64 { return s.Recoveries }},
	{"sequential_fallbacks_total", "Invocations abandoned to sequential execution.",
		func(s *Stats) int64 { return s.SequentialFallbacks }},
	{"priv_read_bytes_total", "Privacy-checked read volume.",
		func(s *Stats) int64 { return s.PrivReadBytes }},
	{"priv_write_bytes_total", "Privacy-checked write volume.",
		func(s *Stats) int64 { return s.PrivWriteBytes }},
	{"priv_read_checks_total", "Dynamic privacy read checks.",
		func(s *Stats) int64 { return s.PrivReadChecks }},
	{"priv_write_checks_total", "Dynamic privacy write checks.",
		func(s *Stats) int64 { return s.PrivWriteChecks }},
	{"separation_checks_total", "Dynamic heap-separation checks.",
		func(s *Stats) int64 { return s.SeparationChecks }},
	{"predictions_total", "Dynamic value-prediction checks.",
		func(s *Stats) int64 { return s.Predictions }},
	{"deferred_io_total", "Buffered output operations.",
		func(s *Stats) int64 { return s.DeferredIO }},
	{"proven_range_bytes_total", "Bytes wholesale-installed from statically-privatized ranges.",
		func(s *Stats) int64 { return s.ProvenRangeBytes }},
	{"sep_audit_violations_total", "Static separation claims contradicted by the SepAudit oracle.",
		func(s *Stats) int64 { return s.SepAuditViolations }},
	{"warm_spawns_total", "Worker spawns satisfied from the warmed pool.",
		func(s *Stats) int64 { return s.WarmSpawns }},
	{"spawn_ns_total", "Wall-clock worker spawn time.",
		func(s *Stats) int64 { return s.SpawnNS }},
	{"join_ns_total", "Master-side validate/install/commit critical path.",
		func(s *Stats) int64 { return s.JoinNS }},
	{"checkpoint_ns_total", "Wall-clock worker checkpoint-merge time.",
		func(s *Stats) int64 { return s.CheckpointNS }},
	{"worker_busy_ns_total", "Total wall-clock worker execution time.",
		func(s *Stats) int64 { return s.WorkerBusyNS }},
	{"region_wall_ns_total", "Wall-clock time inside parallel regions.",
		func(s *Stats) int64 { return s.RegionWallNS }},
}

// vmCounters lists the master vm.Stats fields published as privateer_vm_*
// counters. Worker blocks are folded into the master's at every span join,
// so these count the whole fleet.
var vmCounters = []struct {
	name, help string
	get        func(*vm.Stats) int64
}{
	{"pages_mapped_total", "Demand-zero page instantiations (master space and its worker fleet).",
		func(s *vm.Stats) int64 { return s.PagesMapped }},
	{"pages_copied_total", "Copy-on-write page duplications (master space and its worker fleet).",
		func(s *vm.Stats) int64 { return s.PagesCopied }},
	{"nodes_copied_total", "Radix page-table nodes path-copied by range-COW splits.",
		func(s *vm.Stats) int64 { return s.NodesCopied }},
	{"summary_hits_total", "Subtrees skipped outright by dirty-summary-guided page walks.",
		func(s *vm.Stats) int64 { return s.SummaryHits }},
}

// rtMetrics is one runtime's view of its metrics registry: handles
// resolved once in New, plus the totals already pushed through them.
type rtMetrics struct {
	stats []obs.Counter // parallel to statCounters
	vm    []obs.Counter // parallel to vmCounters

	liveBytes, liveObjs, allocBytes [ir.NumHeaps]obs.Gauge
	ptResident, ptNodes, ptDirty    obs.Gauge

	// pubStats and pubVM are the Stats and master vm.Stats totals already
	// added to the counters; publish adds only what accrued since. pubVM
	// restarts at zero with each Run's fresh master space.
	pubStats Stats
	pubVM    vm.Stats
}

// newMetrics resolves the runtime's metric handles on reg and sets the
// static per-region counters. Counters are shared by every runtime on reg:
// each adds its own deltas, so the registry holds sums across runtimes.
func newMetrics(reg *obs.Registry, regions map[*ir.Function]*RegionInfo) *rtMetrics {
	m := &rtMetrics{}
	for _, sc := range statCounters {
		m.stats = append(m.stats, reg.Counter("privateer_"+sc.name, sc.help))
	}
	for _, vc := range vmCounters {
		m.vm = append(m.vm, reg.Counter("privateer_vm_"+vc.name, vc.help))
	}
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		name := h.String()
		m.liveBytes[h] = reg.Gauge("privateer_heap_live_bytes",
			"Live (rounded) bytes per logical heap of the master space.", "heap", name)
		m.liveObjs[h] = reg.Gauge("privateer_heap_live_objects",
			"Live allocations per logical heap of the master space.", "heap", name)
		m.allocBytes[h] = reg.Gauge("privateer_heap_alloc_bytes_total",
			"Cumulative bytes ever allocated per logical heap of the master space.", "heap", name)
	}
	m.ptResident = reg.Gauge("privateer_vm_resident_pages",
		"Instantiated pages in the master radix page table (refreshed at invocation boundaries).")
	m.ptNodes = reg.Gauge("privateer_vm_radix_nodes",
		"Reachable radix page-table nodes of the master space (refreshed at invocation boundaries).")
	m.ptDirty = reg.Gauge("privateer_vm_dirty_pages",
		"Master pages dirtied since its last clone (refreshed at invocation boundaries).")
	// Both counters were registered above; the rate reads the sums.
	misspecs := reg.Counter("privateer_misspeculations_total", "")
	checkpoints := reg.Counter("privateer_checkpoints_total", "")
	reg.GaugeFunc("privateer_misspec_rate",
		"Detected misspeculations per constructed checkpoint.", func() float64 {
			if c := checkpoints.Value(); c > 0 {
				return float64(misspecs.Value()) / float64(c)
			}
			return 0
		})

	for _, ri := range regions {
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
	return m
}

// publish pushes what the runtime accrued since its last publish into the
// registry: Stats and master vm.Stats deltas onto counters, the master's
// per-heap occupancy and page-table shape onto gauges, and the opcode
// profile. It runs only at quiescent points (invoke's exit, the end of
// Run), where no worker is live, so it reads plain fields and may walk the
// master page table. A no-op without Config.Metrics.
func (rt *RT) publish() {
	m := rt.met
	if m == nil {
		return
	}
	st := rt.Stats
	for i, sc := range statCounters {
		m.stats[i].Add(sc.get(&st) - sc.get(&m.pubStats))
	}
	m.pubStats = st
	as := rt.master.AS
	vs := *as.Stats
	for i, vc := range vmCounters {
		m.vm[i].Add(vc.get(&vs) - vc.get(&m.pubVM))
	}
	m.pubVM = vs
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		m.liveBytes[h].Set(int64(as.LiveBytes(h)))
		m.liveObjs[h].Set(int64(as.LiveObjects(h)))
		m.allocBytes[h].Set(int64(as.AllocatedBytes(h)))
	}
	pt := as.PageTable()
	m.ptResident.Set(pt.ResidentPages)
	m.ptNodes.Set(pt.Nodes)
	m.ptDirty.Set(pt.DirtyPages)
	if p := rt.Cfg.OpProf; p != nil {
		reg := rt.Cfg.Metrics
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
}
