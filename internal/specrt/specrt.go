package specrt

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privateer/internal/classify"
	"privateer/internal/deps"
	"privateer/internal/doall"
	"privateer/internal/interp"
	"privateer/internal/intervalmap"
	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/profiling"
	"privateer/internal/transform"
	"privateer/internal/vm"
)

// DefaultMaxRecoveries is the per-invocation recovery budget when
// Config.MaxRecoveries is zero. Each recovery makes forward progress, so
// the budget is a policy knob, not a liveness requirement: past it the
// invocation's remainder abandons speculation (a sequential fallback),
// trading lost parallelism for an end to churn. The value comfortably
// covers the paper's Figure 9 regime (up to ~20 expected misspeculations
// per invocation at the highest injected rate).
const DefaultMaxRecoveries = 32

// Config controls a speculative run.
type Config struct {
	// Workers is the number of worker processes.
	Workers int
	// CheckpointPeriod is the iteration count per checkpoint; 0 selects
	// automatically (about five checkpoints per invocation, capped at the
	// paper's 253-iteration metadata limit).
	CheckpointPeriod int64
	// AdaptivePeriod shrinks the checkpoint period after each recovery
	// within an invocation (halving it, floor 1), trading validation
	// overhead for less discarded work when misspeculation turns out to
	// be frequent — an extension of the paper's fixed-period policy
	// (section 5.2 discusses exactly this tension).
	AdaptivePeriod bool
	// MaxRecoveries bounds recovery episodes per invocation; past the
	// budget the invocation's remainder runs sequentially and counts as a
	// SequentialFallback. 0 selects DefaultMaxRecoveries; negative values
	// disable the budget.
	MaxRecoveries int
	// MisspecRate injects artificial misspeculation at the given
	// per-iteration probability (Figure 9). Zero disables injection.
	MisspecRate float64
	// Seed makes injection deterministic.
	Seed uint64
	// StepLimit bounds each worker's interpreter (0 = default).
	StepLimit int64
	// Trace receives speculation-lifecycle events (nil disables tracing;
	// every emission site is then a single branch).
	Trace *obs.Tracer
	// Metrics, when non-nil, receives live runtime metrics: the runtime
	// registers pull-style collectors on it at construction, so a scrape
	// (obs.Server's /metrics) observes Stats, per-heap occupancy, the
	// misspeculation-by-site table, and the opcode profile while a region
	// is still executing. Nil disables publication at zero cost.
	Metrics *obs.Registry
	// OpProf, when non-nil, is shared by every interpreter the runtime
	// constructs (master, workers, recovery), enabling the sampling
	// per-opcode profiler (see interp.OpProfiler).
	OpProf *interp.OpProfiler
	// SepAudit enables the runtime oracle for static separation proofs:
	// workers observe every load and store and flag (loudly, via
	// Stats.SepAuditViolations and SepAuditReport) any access that
	// contradicts a statically-proven claim — a store into a proven
	// read-only object, or a read of a statically-privatized object's byte
	// before the iteration rewrote it. The read-only heap keeps its write
	// protection in this mode even when proofs would let it drop. A sound
	// prover never trips the oracle; it exists to catch unsound proofs
	// (see core.Options.PlantProofs) before they corrupt output silently.
	SepAudit bool
	// Program, when non-nil, is the shared pre-decoded form of Mod that this
	// runtime's master, workers and recovery interpreters execute (see
	// interp.SharedProgram). Concurrent RT instances over the same module —
	// the multi-tenant region service — share one decode cache this way.
	// Program.Mod must be the runtime's module. Nil decodes privately, the
	// single-invocation default.
	Program *interp.Program
	// Pool, when non-nil, recycles warmed worker machinery (address space +
	// interpreter) across spans and invocations instead of constructing it
	// fresh on every spawn, amortizing the per-spawn allocator clone. The
	// pool is safe for concurrent use; the service shares one per compiled
	// program. Nil spawns cold every time.
	Pool *WorkerPool
}

// RegionInfo bundles the compiler artifacts for one parallel region.
type RegionInfo struct {
	// Outline is the DOALL outline (region/iter functions).
	Outline *doall.Region
	// Assign is the heap assignment.
	Assign *classify.Assignment
	// Plan is the speculation plan.
	Plan *deps.Plan
	// TStats is the transformation summary.
	TStats *transform.Stats
}

// Stats aggregates runtime events across all invocations, feeding Table 3
// and Figure 8.
type Stats struct {
	// Invocations counts parallel-region entries.
	Invocations int64
	// Checkpoints counts checkpoint objects constructed.
	Checkpoints int64
	// Misspecs counts detected misspeculations (including injected).
	Misspecs int64
	// Recoveries counts sequential recovery episodes.
	Recoveries int64
	// SequentialFallbacks counts invocations abandoned to pure sequential
	// execution after the per-invocation recovery budget was spent.
	SequentialFallbacks int64
	// PrivReadBytes totals privacy-checked read volume (Table 3's "Priv R").
	PrivReadBytes int64
	// PrivWriteBytes totals privacy-checked write volume (Table 3's
	// "Priv W").
	PrivWriteBytes int64
	// PrivReadChecks counts dynamic privacy read checks.
	PrivReadChecks int64
	// PrivWriteChecks counts dynamic privacy write checks.
	PrivWriteChecks int64
	// SeparationChecks counts dynamic check_heap executions.
	SeparationChecks int64
	// Predictions counts dynamic value-prediction checks.
	Predictions int64
	// DeferredIO counts buffered output operations.
	DeferredIO int64
	// ProvenRangeBytes totals statically-privatized object bytes captured
	// for wholesale per-interval install (objects whose privacy marks the
	// prover discharged; compare PrivWriteBytes for the tracked kind).
	ProvenRangeBytes int64
	// SepAuditViolations counts accesses the SepAudit oracle observed
	// contradicting a static separation proof. Nonzero means an unsound
	// proof reached the runtime; see RT.SepAuditReport.
	SepAuditViolations int64
	// WarmSpawns counts worker spawns satisfied from Config.Pool's warmed
	// slots (a recycled address space re-cloned in place plus a recycled
	// interpreter) rather than constructed cold.
	WarmSpawns int64
	// SpawnNS is wall-clock worker spawn time (nanoseconds, atomically
	// accumulated, like every timing field below).
	SpawnNS int64
	// JoinNS is the master-side validate/install/commit critical path after
	// workers quiesce: the whole chain validation plus install plus commit.
	JoinNS int64
	// CheckpointNS is wall-clock time workers spent merging state into
	// checkpoints.
	CheckpointNS int64
	// PrivReadNS is wall-clock time in privacy read checks.
	PrivReadNS int64
	// PrivWriteNS is wall-clock time in privacy write checks.
	PrivWriteNS int64
	// WorkerBusyNS is total wall-clock worker execution time.
	WorkerBusyNS int64
	// RegionWallNS is wall-clock time inside parallel-region invocations.
	RegionWallNS int64
}

// RT is the runtime: it executes a transformed module, intercepting
// parallel-region calls and running them speculatively in parallel.
type RT struct {
	// Cfg is the run configuration.
	Cfg Config
	// Mod is the transformed module.
	Mod *ir.Module
	// Stats accumulates runtime events.
	Stats Stats
	// Sim accumulates simulated-time accounting (see sim.go).
	Sim SimStats

	regions map[*ir.Function]*RegionInfo

	// Locking discipline for committed program output.
	//
	// outMu guards out (the committed output stream) and each checkpoint's
	// committed flag transition: every writer goes through writeOut or
	// commitOne. Only the master thread writes:
	//
	//   - via OnPrint outside parallel regions, and via sequentialRange
	//     during recovery or fallback, both after the span has joined;
	//   - via commitOne when invoke installs a quiesced span's checkpoints;
	//   - workers never write out (their prints defer into worker-local
	//     buffers).
	//
	// The mutex makes the discipline checkable under -race rather than a
	// comment-only convention; it costs an uncontended lock per record.
	outMu  sync.Mutex
	out    strings.Builder
	master *interp.Interp

	reduxMu sync.Mutex
	// reduxObjs tracks live reduction objects keyed by base address, so
	// registration is O(1) and a free can remove its entry (a stale entry
	// would make every later worker write identity bytes into dead or
	// reallocated memory).
	reduxObjs map[uint64]reduxObj

	// sepMu guards sepObjs, the live statically-proven objects keyed by
	// base address: private-heap objects some region statically privatized
	// (their final ranges install wholesale, since their accesses carry no
	// shadow marks) and read-only-heap objects with a static proof (the
	// SepAudit oracle watches them). Registration mirrors reduxObjs:
	// globals at Run, dynamic sites via onAlloc/onFree.
	sepMu   sync.Mutex
	sepObjs map[uint64]sepObj

	// sepViolMu guards sepViols, the (bounded) detail list behind
	// Stats.SepAuditViolations.
	sepViolMu sync.Mutex
	sepViols  []string

	// occ mirrors the master address space's per-heap allocator totals in
	// atomic counters for live introspection (attached in Run).
	occ *vm.HeapOccupancy

	// siteMu guards siteMap, the live allocation-site map: master-side
	// allocations (and globals) keyed by address range, so a faulting
	// address can be attributed to the object that owns it. Worker-local
	// allocations are scratch state and are not tracked.
	siteMu  sync.Mutex
	siteMap *intervalmap.Map[string]

	// missMu guards missTable, the per-site misspeculation aggregate
	// behind MisspecSites, /spec, and privateer -why-misspec.
	missMu    sync.Mutex
	missTable map[misspecKey]int64

	// histRegionWall and histInstall are optional metric histograms
	// (nil without Config.Metrics; Observe on nil is a no-op).
	histRegionWall *obs.Histogram
	histInstall    *obs.Histogram

	// ptStats caches the master page table's radix occupancy for metric
	// scrapes. The tree itself must not be walked concurrently with
	// mutation, so the cache is refreshed only at quiescent points (region
	// invocation boundaries) and scrapes read the last snapshot.
	ptStats atomic.Pointer[vm.PageTableStats]
	// vmStats atomically publishes the master space's memory-system Stats
	// block for scrapes (set in Run once the master space exists; the block
	// itself is in atomic-update mode whenever metrics are enabled).
	vmStats atomic.Pointer[vm.Stats]
}

// New prepares a runtime for mod with the given regions.
func New(mod *ir.Module, cfg Config, regions ...*RegionInfo) *RT {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	rt := &RT{
		Cfg: cfg, Mod: mod,
		regions:   map[*ir.Function]*RegionInfo{},
		reduxObjs: map[uint64]reduxObj{},
		sepObjs:   map[uint64]sepObj{},
		occ:       vm.NewHeapOccupancy(),
		siteMap:   &intervalmap.Map[string]{},
		missTable: map[misspecKey]int64{},
	}
	for _, r := range regions {
		rt.regions[r.Outline.RegionFn] = r
	}
	if cfg.Metrics != nil {
		rt.publishMetrics(cfg.Metrics)
		latestRT.Store(rt)
	}
	return rt
}

// Output returns everything the program printed, with deferred region
// output committed in order.
func (rt *RT) Output() string {
	rt.outMu.Lock()
	defer rt.outMu.Unlock()
	return rt.out.String()
}

// writeOut appends text to the committed output stream (see the locking
// discipline note on outMu).
func (rt *RT) writeOut(text string) {
	rt.outMu.Lock()
	rt.out.WriteString(text)
	rt.outMu.Unlock()
}

// Master exposes the main process interpreter (after Run).
func (rt *RT) Master() *interp.Interp { return rt.master }

// onAlloc tracks reduction objects allocated dynamically into the redux
// heap so worker heaps can be initialized to identity and merged, and
// records the allocation site for misspeculation attribution.
func (rt *RT) onAlloc(fr *interp.Frame, in *ir.Instr, addr, size uint64) {
	if ir.HeapOf(addr) == ir.HeapRedux && in != nil {
		rt.registerRedux(addr, int64(size), profiling.Object{Site: in})
	}
	if in != nil {
		rt.sepRegister(addr, int64(size), profiling.Object{Site: in})
		rt.trackSite(addr, size, profiling.Object{Site: in}.String())
	}
}

// onFree removes a freed reduction object from the registry: its address
// may be dead, or about to be reused by an unrelated allocation.
func (rt *RT) onFree(fr *interp.Frame, in *ir.Instr, addr uint64) {
	if ir.HeapOf(addr) == ir.HeapRedux {
		rt.deregisterRedux(addr)
	}
	rt.sepDeregister(addr)
	rt.untrackSite(addr)
}

// Run executes the program from its entry function.
func (rt *RT) Run(args ...uint64) (uint64, error) {
	var master *interp.Interp
	if p := rt.Cfg.Program; p != nil {
		if p.Mod != rt.Mod {
			return 0, fmt.Errorf("specrt: Config.Program decodes module %q, runtime executes %q",
				p.Mod.Name, rt.Mod.Name)
		}
		master = interp.NewShared(p, vm.NewAddressSpace())
	} else {
		master = interp.New(rt.Mod, vm.NewAddressSpace())
	}
	if rt.Cfg.StepLimit > 0 {
		master.StepLimit = rt.Cfg.StepLimit
	}
	rt.master = master
	master.SetTrace(rt.Cfg.Trace, -1, -1)
	master.AS.Occ = rt.occ
	if rt.Cfg.Metrics != nil {
		// Scrapes read the master's memory-system counters concurrently
		// with execution, so its Stats block must update atomically.
		master.AS.AtomicStats()
		rt.vmStats.Store(master.AS.Stats)
	}
	master.Prof = rt.Cfg.OpProf
	master.Hooks.OnPrint = func(in *ir.Instr, text string) bool {
		rt.writeOut(text)
		return true
	}
	master.Hooks.OnAlloc = rt.onAlloc
	master.Hooks.OnFree = rt.onFree
	master.Hooks.CallOverride = func(fr *interp.Frame, in *ir.Instr, callee *ir.Function, args []uint64) (uint64, bool, error) {
		ri := rt.regions[callee]
		if ri == nil {
			return 0, false, nil
		}
		return 0, true, rt.invoke(ri, args)
	}
	if err := master.LayOutGlobals(); err != nil {
		return 0, err
	}
	defer func() { rt.Sim.SeqSteps = master.Steps }()
	// Register global reduction objects, and every global's address range
	// for misspeculation attribution.
	for _, name := range rt.Mod.GlobalNames() {
		g := rt.Mod.Globals[name]
		if g.Heap == ir.HeapRedux {
			rt.registerRedux(master.GlobalAddr(g), g.Size, profiling.Object{Global: g})
		}
		rt.sepRegister(master.GlobalAddr(g), g.Size, profiling.Object{Global: g})
		rt.trackSite(master.GlobalAddr(g), uint64(g.Size), profiling.Object{Global: g}.String())
	}
	return master.Run(args...)
}

// registerRedux records a reduction object's operator and element size from
// whichever region's assignment classified it. Re-registering an address
// (a reallocation after a free) replaces the entry, so the new object's
// operator wins.
func (rt *RT) registerRedux(addr uint64, size int64, obj profiling.Object) {
	op := ir.ReduxAddI64
	elem := int64(8)
	for _, ri := range rt.regions {
		if k, ok := ri.Assign.ReduxOps[obj]; ok && k != ir.ReduxNone {
			op = k
			if s := ri.Assign.ReduxSizes[obj]; s != 0 {
				elem = s
			}
			break
		}
	}
	rt.reduxMu.Lock()
	rt.reduxObjs[addr] = reduxObj{addr: addr, size: size, elemSize: elem, op: op}
	rt.reduxMu.Unlock()
}

// deregisterRedux drops the reduction object at addr, if registered.
func (rt *RT) deregisterRedux(addr uint64) {
	rt.reduxMu.Lock()
	delete(rt.reduxObjs, addr)
	rt.reduxMu.Unlock()
}

// reduxSnapshot returns the live reduction objects in address order: one
// consistent, deterministic view per speculative span.
func (rt *RT) reduxSnapshot() []reduxObj {
	rt.reduxMu.Lock()
	out := make([]reduxObj, 0, len(rt.reduxObjs))
	for _, ro := range rt.reduxObjs {
		out = append(out, ro)
	}
	rt.reduxMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// reduxCount returns the number of registered reduction objects (tests).
func (rt *RT) reduxCount() int {
	rt.reduxMu.Lock()
	defer rt.reduxMu.Unlock()
	return len(rt.reduxObjs)
}

// sepRegister records a private- or read-only-heap object at addr when
// some region carries a static proof the runtime acts on: a statically-
// privatized private object (wholesale range install replaces its
// dropped privacy marks) or a proven read-only object (watched by the
// SepAudit oracle, and grounds for skipping the worker-side write
// protection). Re-registering an address replaces the entry.
func (rt *RT) sepRegister(addr uint64, size int64, obj profiling.Object) {
	h := ir.HeapOf(addr)
	if h != ir.HeapPrivate && h != ir.HeapReadOnly {
		return
	}
	used := false
	for _, ri := range rt.regions {
		if ri.Assign.Sep.StaticallyPrivatized(obj) || ri.Assign.Sep.ProvenFor(obj, ir.HeapReadOnly) {
			used = true
			break
		}
	}
	if !used {
		return
	}
	rt.sepMu.Lock()
	rt.sepObjs[addr] = sepObj{obj: obj, addr: addr, size: size}
	rt.sepMu.Unlock()
}

// sepDeregister drops the proven object at addr, if registered.
func (rt *RT) sepDeregister(addr uint64) {
	rt.sepMu.Lock()
	delete(rt.sepObjs, addr)
	rt.sepMu.Unlock()
}

// sepSnapshot returns, for one region, the live statically-privatized
// ranges (whose content installs wholesale per interval) and the proven
// read-only ranges (consumed by the SepAudit oracle), each in address
// order: one consistent view per speculative span.
func (rt *RT) sepSnapshot(ri *RegionInfo) (priv, ro []provenRange) {
	rt.sepMu.Lock()
	for _, so := range rt.sepObjs {
		switch {
		case ir.HeapOf(so.addr) == ir.HeapPrivate && ri.Assign.Sep.StaticallyPrivatized(so.obj):
			priv = append(priv, provenRange{addr: so.addr, size: so.size})
		case ir.HeapOf(so.addr) == ir.HeapReadOnly && ri.Assign.Sep.ProvenFor(so.obj, ir.HeapReadOnly):
			ro = append(ro, provenRange{addr: so.addr, size: so.size})
		}
	}
	rt.sepMu.Unlock()
	sort.Slice(priv, func(i, j int) bool { return priv[i].addr < priv[j].addr })
	sort.Slice(ro, func(i, j int) bool { return ro[i].addr < ro[j].addr })
	return priv, ro
}

// roProtSkippable reports whether worker spaces for ri may skip write-
// protecting the read-only heap: the region has no unresolvable write
// and provably writes no object any region placed in the read-only heap,
// so the protection can never fire. SepAudit keeps the protection
// regardless — the oracle wants the trap as a second witness.
func (rt *RT) roProtSkippable(ri *RegionInfo) bool {
	sep := ri.Assign.Sep
	if rt.Cfg.SepAudit || sep == nil || sep.WritesUnknown {
		return false
	}
	for o := range sep.Writes {
		for _, rj := range rt.regions {
			if rj.Assign.HeapOf(o) == ir.HeapReadOnly {
				return false
			}
		}
	}
	return true
}

// noteSepViolation records one SepAudit oracle violation: counted in
// Stats, detailed (bounded) in SepAuditReport.
func (rt *RT) noteSepViolation(detail string) {
	atomic.AddInt64(&rt.Stats.SepAuditViolations, 1)
	rt.sepViolMu.Lock()
	if len(rt.sepViols) < 64 {
		rt.sepViols = append(rt.sepViols, detail)
	}
	rt.sepViolMu.Unlock()
}

// SepAuditReport returns the detail lines of every SepAudit violation
// observed so far (bounded; Stats.SepAuditViolations has the full count).
func (rt *RT) SepAuditReport() []string {
	rt.sepViolMu.Lock()
	defer rt.sepViolMu.Unlock()
	return append([]string(nil), rt.sepViols...)
}

// checkpointPeriod picks k for an invocation of total iterations.
func (rt *RT) checkpointPeriod(total int64) int64 {
	k := rt.Cfg.CheckpointPeriod
	if k <= 0 {
		k = (total + 4) / 5 // about five checkpoints per invocation
	}
	if k < 1 {
		k = 1
	}
	if k > MaxCheckpointPeriod {
		k = MaxCheckpointPeriod
	}
	return k
}

// maxRecoveries resolves the per-invocation recovery budget.
func (rt *RT) maxRecoveries() int {
	if rt.Cfg.MaxRecoveries == 0 {
		return DefaultMaxRecoveries
	}
	return rt.Cfg.MaxRecoveries
}

// invoke runs one parallel region invocation: args are (lo, hi, live-ins).
func (rt *RT) invoke(ri *RegionInfo, args []uint64) error {
	wallStart := time.Now()
	inv := atomic.AddInt64(&rt.Stats.Invocations, 1) - 1
	// Wall time accounts once, on every exit path: clean completion,
	// misspeculation-loop errors, and the sequential fallback alike.
	defer func() {
		wall := int64(time.Since(wallStart))
		atomic.AddInt64(&rt.Stats.RegionWallNS, wall)
		rt.histRegionWall.Observe(wall)
		// Workers have joined: the master space is
		// quiescent, so this is a safe point to refresh the page-table
		// snapshot metric scrapes read.
		if rt.Cfg.Metrics != nil {
			pt := rt.master.AS.PageTable()
			rt.ptStats.Store(&pt)
		}
	}()
	tr := rt.Cfg.Trace
	if tr.On() {
		t0 := tr.Now()
		defer func() {
			tr.Emit(obs.Event{Kind: obs.KRegionInvoke, TimeNS: t0, DurNS: tr.Now() - t0,
				Invocation: inv, Worker: -1, Iter: -1, A: int64(args[0]), B: int64(args[1])})
		}()
		rt.master.AS.TraceInv = inv
	}
	lo, hi := int64(args[0]), int64(args[1])
	live := args[2:]
	if hi <= lo {
		return nil
	}
	k := rt.checkpointPeriod(hi - lo)

	// The recovery budget is per invocation: a misspeculation-heavy region
	// entry falls back to sequential execution for its own remainder
	// without poisoning later invocations.
	maxRec := rt.maxRecoveries()
	recoveries := 0
	start := lo
	for start < hi {
		if maxRec > 0 && recoveries >= maxRec {
			atomic.AddInt64(&rt.Stats.SequentialFallbacks, 1)
			tr.Instant(obs.Event{Kind: obs.KSeqFallback,
				Invocation: inv, Worker: -1, Iter: -1, A: start, B: hi})
			break
		}
		span := &spanState{
			rt: rt, ri: ri, live: live,
			start: start, hi: hi, k: k,
			misspecIter: -1,
			inv:         inv,
			redux:       rt.reduxSnapshot(),
			roProtSkip:  rt.roProtSkippable(ri),
		}
		span.proven, span.provenRO = rt.sepSnapshot(ri)
		tr.Instant(obs.Event{Kind: obs.KSpanStart,
			Invocation: inv, Worker: -1, Iter: -1, A: start, B: k})
		lastValid, misspecAt, err := span.run()
		tr.Instant(obs.Event{Kind: obs.KSpanEnd,
			Invocation: inv, Worker: -1, Iter: -1, A: misspecAt, B: start})
		if err != nil {
			return err
		}
		if misspecAt < 0 {
			// Clean completion: install the final checkpoint.
			joinStart := time.Now()
			if lastValid != nil {
				if err := rt.installCheckpoint(lastValid, span.redux, inv); err != nil {
					return err
				}
			}
			atomic.AddInt64(&rt.Stats.JoinNS, int64(time.Since(joinStart)))
			return nil
		}
		// Misspeculation: recover.
		recoveries++
		atomic.AddInt64(&rt.Stats.Recoveries, 1)
		if lastValid != nil {
			if err := rt.installCheckpoint(lastValid, span.redux, inv); err != nil {
				return err
			}
		}
		redoFrom := start
		if lastValid != nil {
			redoFrom = lastValid.limit
		}
		tr.Instant(obs.Event{Kind: obs.KPhase,
			Invocation: inv, Worker: -1, Iter: -1, Cause: "recover"})
		recStart := tr.Now()
		if err := rt.sequentialRange(ri, redoFrom, misspecAt+1, live); err != nil {
			return err
		}
		if tr.On() {
			tr.Emit(obs.Event{Kind: obs.KRecovery, TimeNS: recStart, DurNS: tr.Now() - recStart,
				Invocation: inv, Worker: -1, Iter: -1, A: redoFrom, B: misspecAt + 1})
		}
		start = misspecAt + 1
		if rt.Cfg.AdaptivePeriod && k > 1 {
			k /= 2
		}
	}
	// Fallback: run the remainder sequentially, checks disabled.
	if start < hi {
		if err := rt.sequentialRange(ri, start, hi, live); err != nil {
			return err
		}
	}
	return nil
}

// installCheckpoint applies cp's chain to the master state, accounts the
// simulated cost, and commits the chain's deferred output.
func (rt *RT) installCheckpoint(cp *checkpoint, redux []reduxObj, inv int64) error {
	tr := rt.Cfg.Trace
	t0 := tr.Now()
	bytes, err := cp.installInto(rt.master.AS, redux)
	if err != nil {
		return err
	}
	rt.histInstall.Observe(bytes)
	cost := bytes * SimInstallPerByte
	atomic.AddInt64(&rt.Sim.RegionTime, cost)
	atomic.AddInt64(&rt.Sim.CheckpointCost, cost)
	if tr.On() {
		tr.Emit(obs.Event{Kind: obs.KInstall, TimeNS: t0, DurNS: tr.Now() - t0,
			Invocation: inv, Worker: -1, Iter: cp.id, A: bytes})
	}
	rt.commitChain(cp, inv)
	return nil
}

// commitOne commits one checkpoint's deferred output in iteration order and
// marks it committed, all under outMu (see the locking discipline note),
// returning the number of records.
func (rt *RT) commitOne(c *checkpoint) int64 {
	recs := c.sortedIO()
	rt.outMu.Lock()
	for _, rec := range recs {
		rt.out.WriteString(rec.text)
	}
	c.committed = true
	rt.outMu.Unlock()
	cost := int64(len(recs)) * SimCommitPerIO
	atomic.AddInt64(&rt.Sim.RegionTime, cost)
	atomic.AddInt64(&rt.Sim.CheckpointCost, cost)
	return int64(len(recs))
}

// commitChain commits every uncommitted checkpoint up to cp, emitting
// deferred output in order.
func (rt *RT) commitChain(cp *checkpoint, inv int64) {
	tr := rt.Cfg.Trace
	var chain []*checkpoint
	for c := cp; c != nil; c = c.prev {
		if c.committed {
			break
		}
		chain = append(chain, c)
	}
	t0 := tr.Now()
	var committed int64
	for i := len(chain) - 1; i >= 0; i-- {
		committed += rt.commitOne(chain[i])
	}
	if len(chain) > 0 && tr.On() {
		tr.Emit(obs.Event{Kind: obs.KCommit, TimeNS: t0, DurNS: tr.Now() - t0,
			Invocation: inv, Worker: -1, Iter: cp.id, A: committed})
	}
}

// validateShards returns the number of goroutines that shard checkpoint
// merge and cross-interval validation scans by shadow-page range:
// GOMAXPROCS, capped at 8. Results are independent of the shard count.
func validateShards() int {
	return min(runtime.GOMAXPROCS(0), 8)
}

// sequentialRange executes iterations [from, to) non-speculatively on the
// master state with every check disabled — the recovery path, and the
// fallback mode.
func (rt *RT) sequentialRange(ri *RegionInfo, from, to int64, live []uint64) error {
	if from >= to {
		return nil
	}
	it := interp.NewShared(rt.master.Program(), rt.master.AS)
	it.AdoptLayout(rt.master.GlobalLayout())
	it.Prof = rt.Cfg.OpProf
	if rt.Cfg.StepLimit > 0 {
		it.StepLimit = rt.Cfg.StepLimit
	}
	it.Hooks.OnPrint = func(in *ir.Instr, text string) bool {
		rt.writeOut(text)
		return true
	}
	// Recovery mutates master state directly, so the redux registry must
	// track allocations and frees it performs.
	it.Hooks.OnAlloc = rt.onAlloc
	it.Hooks.OnFree = rt.onFree
	noop := func(in *ir.Instr, addr uint64, size int64) error { return nil }
	it.Hooks.PrivateRead = noop
	it.Hooks.PrivateWrite = noop
	it.Hooks.ReduxWrite = noop
	it.Hooks.CheckHeap = func(in *ir.Instr, addr uint64) error { return nil }
	it.Hooks.Predict = func(in *ir.Instr, actual, expected uint64) error { return nil }
	it.Hooks.Misspec = func(in *ir.Instr) error { return nil }
	callArgs := make([]uint64, 1+len(live))
	copy(callArgs[1:], live)
	for i := from; i < to; i++ {
		callArgs[0] = uint64(i)
		if _, err := it.Call(ri.Outline.IterFn, callArgs...); err != nil {
			return fmt.Errorf("sequential recovery at iteration %d: %w", i, err)
		}
	}
	atomic.AddInt64(&rt.Sim.RecoverySteps, it.Steps)
	return nil
}

// inject reports whether iteration i should misspeculate artificially.
func (rt *RT) inject(i int64) bool {
	if rt.Cfg.MisspecRate <= 0 {
		return false
	}
	// splitmix64 over (seed, i) for a deterministic, uniform draw.
	x := rt.Cfg.Seed ^ uint64(i)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53) < rt.Cfg.MisspecRate
}
