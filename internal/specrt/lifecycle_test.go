package specrt

import (
	"fmt"
	"testing"

	"privateer/internal/classify"
	"privateer/internal/deps"
	"privateer/internal/doall"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/profiling"
	"privateer/internal/vm"
)

// outlineRegion outlines a module's hottest depth-1 main loop with a
// hand-built assignment — for tests that need precise control over heap
// classification (the full classify pipeline would choose its own).
func outlineRegion(t *testing.T, mod *ir.Module, assign *classify.Assignment, args ...uint64) *RegionInfo {
	t.Helper()
	prof, err := profiling.Run(mod, args...)
	if err != nil {
		t.Fatal(err)
	}
	var loop *ir.Loop
	for _, li := range prof.HotLoops() {
		if li.Loop.Header.Fn.Name == "main" && li.Loop.Depth == 1 {
			loop = li.Loop
			break
		}
	}
	if loop == nil {
		t.Fatal("no hot main loop")
	}
	iv := ir.FindInductionVar(loop)
	outline, err := doall.Outline(mod, loop, iv)
	if err != nil {
		t.Fatal(err)
	}
	return &RegionInfo{Outline: outline, Assign: assign, Plan: &deps.Plan{}}
}

// TestPerInvocationFallback: the recovery budget must be per invocation —
// a budget of 2 under certain misspeculation yields exactly 2 recoveries
// and 1 fallback per region entry, and a later invocation starts with a
// fresh budget instead of inheriting the exhausted one.
func TestPerInvocationFallback(t *testing.T) {
	const n = 12
	seqIt := interp.New(buildWriterModule(n), vm.NewAddressSpace())
	want, err := seqIt.Run()
	if err != nil {
		t.Fatal(err)
	}
	mod := buildWriterModule(n)
	ri := buildRegion(t, mod)
	rt := New(mod, Config{
		Workers: 3, CheckpointPeriod: 2,
		MisspecRate: 1.0, Seed: 1, MaxRecoveries: 2,
	}, ri)
	got, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("result %d, want %d", got, want)
	}
	if rt.Stats.Recoveries != 2 {
		t.Errorf("recoveries %d, want 2 (the budget)", rt.Stats.Recoveries)
	}
	if rt.Stats.SequentialFallbacks != 1 {
		t.Errorf("fallbacks %d, want 1", rt.Stats.SequentialFallbacks)
	}
	if rt.Stats.RegionWallNS <= 0 {
		t.Error("RegionWallNS not accounted on the fallback path")
	}
	// A second invocation must get its own budget: were the budget
	// cumulative, it would fall back immediately with no new recoveries.
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats.Recoveries != 4 {
		t.Errorf("recoveries after second invocation %d, want 4 (2 per invocation)", rt.Stats.Recoveries)
	}
	if rt.Stats.SequentialFallbacks != 2 {
		t.Errorf("fallbacks after second invocation %d, want 2", rt.Stats.SequentialFallbacks)
	}
}

// TestUnlimitedRecoveries: a negative budget disables the fallback. The
// run is single-worker so every iteration misspeculates in its own span:
// the recovery count deterministically exceeds DefaultMaxRecoveries, which
// proves the budget really is off (the default would have fallen back).
func TestUnlimitedRecoveries(t *testing.T) {
	const n = DefaultMaxRecoveries + 8
	mod := buildWriterModule(n)
	ri := buildRegion(t, mod)
	rt := New(mod, Config{
		Workers: 1, CheckpointPeriod: 1,
		MisspecRate: 1.0, Seed: 1, MaxRecoveries: -1,
	}, ri)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats.SequentialFallbacks != 0 {
		t.Errorf("fallbacks %d with unlimited budget, want 0", rt.Stats.SequentialFallbacks)
	}
	if rt.Stats.Recoveries != n {
		t.Errorf("recoveries %d, want %d (one per iteration)", rt.Stats.Recoveries, n)
	}
}

// TestReduxRegistryLifecycle: registration is keyed by address (a
// re-registration replaces the entry), deregistration removes it, and
// snapshots come out in address order.
func TestReduxRegistryLifecycle(t *testing.T) {
	rt := New(ir.NewModule("empty"), Config{})
	a := ir.HeapRedux.Base() + vm.PageSize
	b := a + 64
	rt.registerRedux(a, 8, profiling.Object{})
	rt.registerRedux(b, 16, profiling.Object{})
	if rt.reduxCount() != 2 {
		t.Fatalf("count %d, want 2", rt.reduxCount())
	}
	// Same address again: replaced, not duplicated.
	rt.registerRedux(a, 24, profiling.Object{})
	if rt.reduxCount() != 2 {
		t.Fatalf("count after re-register %d, want 2", rt.reduxCount())
	}
	snap := rt.reduxSnapshot()
	if len(snap) != 2 || snap[0].addr != a || snap[1].addr != b {
		t.Fatalf("snapshot not address-ordered: %+v", snap)
	}
	if snap[0].size != 24 {
		t.Errorf("re-registration kept stale size %d, want 24", snap[0].size)
	}
	rt.deregisterRedux(a)
	if rt.reduxCount() != 1 {
		t.Fatalf("count after deregister %d, want 1", rt.reduxCount())
	}
	if snap := rt.reduxSnapshot(); len(snap) != 1 || snap[0].addr != b {
		t.Fatalf("wrong survivor: %+v", snap)
	}
}

// buildReduxReallocModule allocates a reduction object, frees it, and
// allocates a second one — which the heap free list places at the SAME
// address — then min-reduces into it. The returned instruction is the
// second allocation site (the one the assignment must classify).
//
//	r1 = halloc(8, redux); hdealloc(r1)
//	r2 = halloc(8, redux); *r2 = 1000
//	for i in [0,12): *r2 = min(*r2, i+5)   // sequential result: 5
func buildReduxReallocModule() (*ir.Module, *ir.Instr) {
	m := ir.NewModule("redux-realloc")
	slot := m.NewGlobal("slot", 8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	a1 := b.HAlloc("r1", b.I(8), ir.HeapRedux)
	b.HDealloc(a1, ir.HeapRedux)
	a2 := b.HAlloc("r2", b.I(8), ir.HeapRedux)
	b.Store(b.I(1000), a2, 8)
	b.St(a2, b.Global(slot))
	b.For("i", b.I(0), b.I(12), func(iv *ir.Instr) {
		p := b.LdP(b.Global(slot))
		v := b.Load(p, 8)
		x := b.Add(b.Ld(iv), b.I(5))
		b.Store(b.Select(b.SLt(v, x), v, x), p, 8)
	})
	b.Ret(b.Load(b.LdP(b.Global(slot)), 8))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m, a2
}

// TestReduxFreeReallocRoundTrip: freeing a reduction object must drop its
// registry entry, so a reallocation at the same address is governed by the
// NEW object's operator. With a stale first-registration-wins entry the
// min-reduction would be initialized and folded as an integer sum
// (identity 0), producing 1000 instead of 5.
func TestReduxFreeReallocRoundTrip(t *testing.T) {
	mod, site2 := buildReduxReallocModule()
	assign := &classify.Assignment{
		ReduxOps:   map[profiling.Object]ir.ReduxKind{{Site: site2}: ir.ReduxMinI64},
		ReduxSizes: map[profiling.Object]int64{{Site: site2}: 8},
	}
	ri := outlineRegion(t, mod, assign)
	rt := New(mod, Config{Workers: 2, CheckpointPeriod: 4}, ri)
	got, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("min-reduction result %d, want 5 (stale operator would give 1000)", got)
	}
	if rt.Stats.Misspecs != 0 {
		t.Errorf("unexpected misspecs %d", rt.Stats.Misspecs)
	}
	if rt.reduxCount() != 1 {
		t.Fatalf("registry holds %d objects after free+realloc, want 1", rt.reduxCount())
	}
	if snap := rt.reduxSnapshot(); snap[0].op != ir.ReduxMinI64 {
		t.Errorf("registry kept the freed object's operator %v, want %v",
			snap[0].op, ir.ReduxMinI64)
	}
}

// TestCrossValidateUnit drives the chain validation directly: a byte
// written in interval 0 and read as "live-in" in interval 1 must flag
// interval 1; disjoint bytes must not.
func TestCrossValidateUnit(t *testing.T) {
	base := ir.ShadowAddr(ir.HeapPrivate.Base()+vm.PageSize) &^ uint64(vm.PageSize-1)

	cp0 := newCheckpoint(0, 0, 4, nil)
	cp1 := newCheckpoint(1, 4, 8, cp0)
	cp0.ownPage(cp0.shadow, base)[5] = MetaTSBase // written in interval 0
	cp1.ownPage(cp1.shadow, base)[5] = MetaReadLiveIn
	if c, _ := cp1.crossValidateAddr(); c != 1 {
		t.Errorf("write-then-live-in-read: flagged interval %d, want 1", c)
	}

	// Read as live-in first, written later: also a violation (the earlier
	// read observed pre-region state the later write should have changed).
	cp0 = newCheckpoint(0, 0, 4, nil)
	cp1 = newCheckpoint(1, 4, 8, cp0)
	cp0.ownPage(cp0.shadow, base)[9] = MetaReadLiveIn
	cp1.ownPage(cp1.shadow, base)[9] = MetaTSBase
	if c, _ := cp1.crossValidateAddr(); c != 1 {
		t.Errorf("live-in-read-then-write: flagged interval %d, want 1", c)
	}

	// Disjoint bytes: clean.
	cp0 = newCheckpoint(0, 0, 4, nil)
	cp1 = newCheckpoint(1, 4, 8, cp0)
	cp0.ownPage(cp0.shadow, base)[1] = MetaTSBase
	cp1.ownPage(cp1.shadow, base)[2] = MetaReadLiveIn
	if c, _ := cp1.crossValidateAddr(); c != -1 {
		t.Errorf("disjoint bytes flagged interval %d, want -1", c)
	}
}

// buildCrossIntervalModule hand-instruments a loop whose only conflict
// spans checkpoint intervals: iteration 2 writes a private global that
// iteration 7 reads. Within each interval the fast phase and the merge see
// nothing wrong — only the cross-interval chain validation can catch it.
func buildCrossIntervalModule() *ir.Module {
	m := ir.NewModule("xval")
	g := m.NewGlobal("g", 8)
	g.Heap = ir.HeapPrivate
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(8), func(iv *ir.Instr) {
		i := b.Ld(iv)
		b.If(b.Eq(i, b.I(2)), func() {
			p := b.Global(g)
			b.PrivateWrite(p, 8)
			b.Store(i, p, 8)
		}, nil)
		b.If(b.Eq(i, b.I(7)), func() {
			p := b.Global(g)
			b.PrivateRead(p, 8)
			b.Print("v=%d\n", b.Load(p, 8))
		}, nil)
	})
	b.Ret(b.I(0))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m
}

// TestCrossIntervalMisspecEndToEnd: with 2 workers and period 4, the
// write at iteration 2 lands in interval 0 (worker 0) and the read at
// iteration 7 in interval 1 (worker 1) — separate address spaces, separate
// checkpoints, so only crossValidate detects the violation. Recovery must
// re-execute from the last valid checkpoint and produce the sequential
// output.
func TestCrossIntervalMisspecEndToEnd(t *testing.T) {
	mod := buildCrossIntervalModule()
	ri := outlineRegion(t, mod, &classify.Assignment{})
	rt := New(mod, Config{Workers: 2, CheckpointPeriod: 4}, ri)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats.Misspecs == 0 {
		t.Error("cross-interval violation not detected")
	}
	if rt.Stats.Recoveries == 0 {
		t.Error("no recovery after cross-interval misspeculation")
	}
	if got, want := rt.Output(), "v=2\n"; got != want {
		t.Errorf("output %q, want %q (sequential semantics)", got, want)
	}
}

// TestAdaptivePeriodHalving observes the halving through the event stream:
// under certain misspeculation with AdaptivePeriod, successive spans must
// start with periods 8, 4, 2, 1, 1, ...
func TestAdaptivePeriodHalving(t *testing.T) {
	const n = 20
	mod := buildWriterModule(n)
	ri := buildRegion(t, mod)
	col := obs.NewCollector(0)
	rt := New(mod, Config{
		Workers: 1, CheckpointPeriod: 8, AdaptivePeriod: true,
		MisspecRate: 1.0, Seed: 7, MaxRecoveries: 100,
		Trace: obs.NewTracer(col),
	}, ri)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	var periods []int64
	for _, ev := range col.Events() {
		if ev.Kind == obs.KSpanStart {
			periods = append(periods, ev.B)
		}
	}
	if len(periods) < 4 {
		t.Fatalf("only %d spans recorded", len(periods))
	}
	for i, want := range []int64{8, 4, 2, 1} {
		if periods[i] != want {
			t.Fatalf("span %d period %d, want %d (full sequence %v)", i, periods[i], want, periods)
		}
	}
	for i, p := range periods[3:] {
		if p != 1 {
			t.Errorf("span %d period %d, want floor 1", i+3, p)
		}
	}
}

// TestEventSequenceGolden pins the exact lifecycle event sequence for a
// deterministic single-worker run that misspeculates on every iteration,
// recovers twice, and falls back: the trace is an API, and reorderings are
// regressions.
func TestEventSequenceGolden(t *testing.T) {
	const n = 6
	mod := buildWriterModule(n)
	ri := buildRegion(t, mod)
	col := obs.NewCollector(0)
	rt := New(mod, Config{
		Workers: 1, CheckpointPeriod: 2,
		MisspecRate: 1.0, Seed: 1, MaxRecoveries: 2,
		Trace: obs.NewTracer(col),
	}, ri)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Only the specrt lifecycle kinds: vm-layer events (COW copies, TLB
	// flushes) interleave nondeterministically with map iteration order.
	keep := map[obs.Kind]bool{
		obs.KRegionInvoke: true, obs.KSpanStart: true, obs.KSpanEnd: true,
		obs.KPhase: true, obs.KMisspec: true, obs.KRecovery: true,
		obs.KSeqFallback: true,
	}
	var got []string
	for _, ev := range col.Events() {
		if !keep[ev.Kind] {
			continue
		}
		s := ev.Kind.String()
		if ev.Cause != "" {
			s += ":" + ev.Cause
		}
		got = append(got, s)
	}
	want := []string{
		"span-start", "phase:fast", "misspec:injected", "phase:validate", "span-end",
		"phase:recover", "recovery",
		"span-start", "phase:fast", "misspec:injected", "phase:validate", "span-end",
		"phase:recover", "recovery",
		"seq-fallback",
		"region-invoke",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("event sequence:\n got %v\nwant %v", got, want)
	}
}

// TestMetricsFromRun: the per-invocation metrics snapshot folded from a
// live run must agree with the runtime's own counters.
func TestMetricsFromRun(t *testing.T) {
	const n = 24
	mod := buildWriterModule(n)
	ri := buildRegion(t, mod)
	col := obs.NewCollector(0)
	rt := New(mod, Config{
		Workers: 2, CheckpointPeriod: 4,
		MisspecRate: 0.1, Seed: 5,
		Trace: obs.NewTracer(col),
	}, ri)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	ms := obs.Summarize(col.Events())
	var m *obs.InvocationMetrics
	for i := range ms {
		if ms[i].Invocation == 0 {
			m = &ms[i]
		}
	}
	if m == nil {
		t.Fatal("no invocation-0 metrics")
	}
	if m.Misspecs != rt.Stats.Misspecs {
		t.Errorf("event misspecs %d != stats %d", m.Misspecs, rt.Stats.Misspecs)
	}
	if m.Recoveries != rt.Stats.Recoveries {
		t.Errorf("event recoveries %d != stats %d", m.Recoveries, rt.Stats.Recoveries)
	}
	if m.Fallbacks != rt.Stats.SequentialFallbacks {
		t.Errorf("event fallbacks %d != stats %d", m.Fallbacks, rt.Stats.SequentialFallbacks)
	}
	if m.Checkpoints != rt.Stats.Checkpoints {
		t.Errorf("event checkpoints %d != stats %d", m.Checkpoints, rt.Stats.Checkpoints)
	}
	if m.WallNS <= 0 {
		t.Error("no wall time folded from the region-invoke event")
	}
}
