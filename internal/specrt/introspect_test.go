package specrt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/vm"
)

// TestSnapshotMatchesStats: after a quiesced run the atomic snapshot must
// equal the plain struct read.
func TestSnapshotMatchesStats(t *testing.T) {
	mod := buildWriterModule(16)
	ri := buildRegion(t, mod)
	rt := New(mod, Config{Workers: 2, CheckpointPeriod: 4, MisspecRate: 0.2, Seed: 7}, ri)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats.Snapshot(); got != rt.Stats {
		t.Errorf("snapshot %+v differs from quiesced stats %+v", got, rt.Stats)
	}
}

// TestScrapeWhileRunning: scraping the registry and snapshotting stats from
// another goroutine while regions execute must be safe (this is the -race
// regression test for publication) and must observe the published metric
// families.
func TestScrapeWhileRunning(t *testing.T) {
	mod := buildWriterModule(64)
	ri := buildRegion(t, mod)
	reg := obs.NewRegistry()
	rt := New(mod, Config{
		Workers: 3, CheckpointPeriod: 2,
		MisspecRate: 0.1, Seed: 11,
		Metrics: reg,
		OpProf:  interp.NewOpProfiler(64),
	}, ri)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_ = rt.Stats.Snapshot()
			reg.WriteProm(io.Discard)
			_ = reg.WriteVars(io.Discard)
		}
	}()
	for inv := 0; inv < 3; inv++ {
		if _, err := rt.Run(); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	var sb strings.Builder
	reg.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		"privateer_invocations_total 3",
		"privateer_checkpoints_total",
		`privateer_heap_live_bytes{heap="`,
		"privateer_misspec_rate",
		`privateer_op_executed_total{op="`,
		`privateer_fn_calls_total{fn="`,
		"privateer_region_wall_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestMisspecAttributionInjected: injected misspeculations carry no
// faulting address, so the attribution table must aggregate them under the
// bare (region, cause) key, with the count reconciling against Stats.
func TestMisspecAttributionInjected(t *testing.T) {
	mod := buildWriterModule(24)
	ri := buildRegion(t, mod)
	rt := New(mod, Config{Workers: 2, CheckpointPeriod: 2, MisspecRate: 1.0, Seed: 3}, ri)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats.Misspecs == 0 {
		t.Fatal("injection produced no misspeculations")
	}
	rows := rt.MisspecSites()
	if len(rows) == 0 {
		t.Fatal("no attribution rows")
	}
	var total int64
	for _, r := range rows {
		total += r.Count
		if r.Region == "" {
			t.Errorf("row without region: %+v", r)
		}
		if r.Cause == "injected" && r.Object != "" {
			t.Errorf("injected row must have no owning object: %+v", r)
		}
	}
	if total != rt.Stats.Misspecs {
		t.Errorf("attributed %d misspeculations, stats say %d", total, rt.Stats.Misspecs)
	}
	out := FormatMisspecSites(rows)
	if !strings.Contains(out, "injected") || !strings.Contains(out, "count") {
		t.Errorf("formatted table wrong:\n%s", out)
	}
	if FormatMisspecSites(nil) != "no misspeculations recorded\n" {
		t.Error("empty table must render the no-misspeculations line")
	}
}

// TestMetricsScrapeShape: a scrape after a misspeculating run must carry
// one occupancy series per logical heap, a misspeculation rate consistent
// with the counters, and attribution series summing to the misspeculations.
func TestMetricsScrapeShape(t *testing.T) {
	mod := buildWriterModule(16)
	ri := buildRegion(t, mod)
	reg := obs.NewRegistry()
	rt := New(mod, Config{
		Workers: 2, CheckpointPeriod: 4,
		MisspecRate: 0.5, Seed: 9,
		Metrics: reg,
	}, ri)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	vars := scrapeVars(t, reg)
	for _, fam := range []string{"privateer_heap_live_bytes", "privateer_heap_live_objects",
		"privateer_heap_alloc_bytes_total"} {
		for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
			key := fmt.Sprintf("%s{heap=%q}", fam, h.String())
			if _, ok := vars[key]; !ok {
				t.Errorf("scrape missing %s", key)
			}
		}
	}
	st := rt.Stats
	want := 0.0
	if st.Checkpoints > 0 {
		want = float64(st.Misspecs) / float64(st.Checkpoints)
	}
	if got := vars["privateer_misspec_rate"]; got != want {
		t.Errorf("misspec rate %v, want %g", got, want)
	}
	if st.Misspecs == 0 {
		t.Fatal("injection produced no misspeculations")
	}
	var sites float64
	for k, v := range vars {
		if strings.HasPrefix(k, "privateer_misspec_site_total{") {
			sites += v.(float64)
		}
	}
	if sites != float64(st.Misspecs) {
		t.Errorf("site series sum to %g, want the %d misspeculations", sites, st.Misspecs)
	}
}

// scrapeVars renders reg's expvar-style document and decodes it.
func scrapeVars(t *testing.T, reg *obs.Registry) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteVars(&buf); err != nil {
		t.Fatal(err)
	}
	vars := map[string]any{}
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	return vars
}

// TestRuntimesSumOnSharedRegistry: runtimes sharing one registry (the
// region service's one-runtime-per-job shape) must add into its counters.
// Constructing a second runtime must not reset them, and once both have
// run, every runtime counter must equal the two runtimes' Stats summed and
// every memory-system counter the folded totals of all their master
// spaces.
func TestRuntimesSumOnSharedRegistry(t *testing.T) {
	mod := buildWriterModule(24)
	ri := buildRegion(t, mod)
	reg := obs.NewRegistry()
	cfg := Config{Workers: 3, CheckpointPeriod: 4, MisspecRate: 0.2, Seed: 5,
		Metrics: reg, Pool: NewWorkerPool(0)}
	stats := map[string]func(*Stats) int64{
		"invocations_total":          func(s *Stats) int64 { return s.Invocations },
		"checkpoints_total":          func(s *Stats) int64 { return s.Checkpoints },
		"misspeculations_total":      func(s *Stats) int64 { return s.Misspecs },
		"recoveries_total":           func(s *Stats) int64 { return s.Recoveries },
		"sequential_fallbacks_total": func(s *Stats) int64 { return s.SequentialFallbacks },
		"priv_read_bytes_total":      func(s *Stats) int64 { return s.PrivReadBytes },
		"priv_write_bytes_total":     func(s *Stats) int64 { return s.PrivWriteBytes },
		"priv_read_checks_total":     func(s *Stats) int64 { return s.PrivReadChecks },
		"priv_write_checks_total":    func(s *Stats) int64 { return s.PrivWriteChecks },
		"separation_checks_total":    func(s *Stats) int64 { return s.SeparationChecks },
		"predictions_total":          func(s *Stats) int64 { return s.Predictions },
		"deferred_io_total":          func(s *Stats) int64 { return s.DeferredIO },
		"proven_range_bytes_total":   func(s *Stats) int64 { return s.ProvenRangeBytes },
		"sep_audit_violations_total": func(s *Stats) int64 { return s.SepAuditViolations },
		"warm_spawns_total":          func(s *Stats) int64 { return s.WarmSpawns },
		"spawn_ns_total":             func(s *Stats) int64 { return s.SpawnNS },
		"join_ns_total":              func(s *Stats) int64 { return s.JoinNS },
		"checkpoint_ns_total":        func(s *Stats) int64 { return s.CheckpointNS },
		"worker_busy_ns_total":       func(s *Stats) int64 { return s.WorkerBusyNS },
		"region_wall_ns_total":       func(s *Stats) int64 { return s.RegionWallNS },
	}
	memStats := map[string]func(*vm.Stats) int64{
		"pages_mapped_total": func(s *vm.Stats) int64 { return s.PagesMapped },
		"pages_copied_total": func(s *vm.Stats) int64 { return s.PagesCopied },
		"nodes_copied_total": func(s *vm.Stats) int64 { return s.NodesCopied },
		"summary_hits_total": func(s *vm.Stats) int64 { return s.SummaryHits },
	}
	// Read through a full scrape, as an operator would.
	counter := func(name string) int64 {
		v, _ := scrapeVars(t, reg)[name].(float64)
		return int64(v)
	}
	invocations := func() int64 { return counter("privateer_invocations_total") }

	// Every Run builds a fresh master space; sum their folded blocks.
	masters := map[string]int64{}
	run := func(rt *RT) {
		t.Helper()
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		for name, get := range memStats {
			masters[name] += get(rt.Master().AS.Stats)
		}
	}
	a := New(mod, cfg, ri)
	var seen int64
	for i := 0; i < 3; i++ {
		run(a)
		if n := invocations(); n < seen {
			t.Fatalf("invocations_total fell from %d to %d during runtime A's runs", seen, n)
		} else {
			seen = n
		}
	}
	// A single runtime's counters equal its Stats exactly.
	for name, get := range stats {
		if got, want := counter("privateer_"+name), get(&a.Stats); got != want {
			t.Errorf("after runtime A: privateer_%s = %d, want %d", name, got, want)
		}
	}

	b := New(mod, cfg, ri)
	if n := invocations(); n < seen {
		t.Fatalf("invocations_total fell from %d to %d when runtime B was constructed", seen, n)
	}
	run(b)
	if n := invocations(); n != a.Stats.Invocations+b.Stats.Invocations {
		t.Fatalf("invocations_total %d after runtime B ran, want %d",
			n, a.Stats.Invocations+b.Stats.Invocations)
	}
	for name, get := range stats {
		if got, want := counter("privateer_"+name), get(&a.Stats)+get(&b.Stats); got != want {
			t.Errorf("privateer_%s = %d, want A+B = %d", name, got, want)
		}
	}
	for name, want := range masters {
		if got := counter("privateer_vm_" + name); got != want {
			t.Errorf("privateer_vm_%s = %d, want the masters' folded %d", name, got, want)
		}
	}
	if masters["pages_copied_total"] == 0 {
		t.Error("no copy-on-write events reached the masters: worker blocks were not folded")
	}
}

// TestWorkerSpacesOwnStats: a worker space, whether spawned cold or taken
// from the warmed pool, counts page events in a Stats block of its own,
// never the master's.
func TestWorkerSpacesOwnStats(t *testing.T) {
	mod := buildWriterModule(16)
	ri := buildRegion(t, mod)
	for _, pool := range []*WorkerPool{nil, NewWorkerPool(0)} {
		rt := New(mod, Config{Workers: 2, CheckpointPeriod: 4, Pool: pool}, ri)
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		sp := &spanState{rt: rt, ri: ri, start: 0, hi: 16, k: 4, misspecIter: -1}
		warm0 := rt.Stats.WarmSpawns
		w, err := newWorker(sp, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if warm := rt.Stats.WarmSpawns > warm0; warm != (pool != nil) {
			t.Fatalf("pool %v: warm spawn = %v", pool != nil, warm)
		}
		if w.as.Stats == rt.master.AS.Stats {
			t.Errorf("pool %v: worker space shares the master's Stats", pool != nil)
		}
	}
}
