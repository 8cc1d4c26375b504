package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilTracerIsInert: every method must be a no-op on the disabled
// tracer — the runtime calls them unguarded on cold paths.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.On() {
		t.Error("nil tracer reports On")
	}
	if tr.Now() != 0 {
		t.Error("nil tracer Now != 0")
	}
	tr.Emit(Event{Kind: KMisspec})
	tr.Instant(Event{Kind: KMisspec})
	if NewTracer(nil) != nil {
		t.Error("NewTracer(nil) should be the disabled tracer")
	}
}

// TestCollectorRingWrap: overflow must keep the newest events, report the
// drop count, and preserve emission order.
func TestCollectorRingWrap(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 10; i++ {
		c.Emit(Event{Kind: KMisspec, Iter: int64(i)})
	}
	evs := c.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Iter != want {
			t.Errorf("event %d: iter %d, want %d", i, ev.Iter, want)
		}
	}
	if c.Total() != 10 {
		t.Errorf("total %d, want 10", c.Total())
	}
	if c.Dropped() != 6 {
		t.Errorf("dropped %d, want 6", c.Dropped())
	}
	c.Reset()
	if len(c.Events()) != 0 || c.Total() != 0 || c.Dropped() != 0 {
		t.Error("reset did not clear the collector")
	}
}

// TestCollectorConcurrentEmit: workers emit from their own goroutines.
func TestCollectorConcurrentEmit(t *testing.T) {
	c := NewCollector(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Emit(Event{Kind: KContribute, Worker: w})
			}
		}(w)
	}
	wg.Wait()
	if c.Total() != 800 {
		t.Errorf("total %d, want 800", c.Total())
	}
}

// TestChromeTraceShape: the export must be valid JSON with the
// trace_event envelope, complete slices for durations and instants
// otherwise.
func TestChromeTraceShape(t *testing.T) {
	events := []Event{
		{Kind: KRegionInvoke, TimeNS: 1000, DurNS: 5000, Invocation: 0, Worker: -1, Iter: -1, A: 0, B: 40},
		{Kind: KMisspec, TimeNS: 2000, Invocation: 0, Worker: 2, Iter: 7, Cause: "privacy violated (fast phase)"},
		{Kind: KJobPhase, TimeNS: 0, DurNS: 100, Invocation: -1, Worker: -1, Iter: -1, Cause: "queued"},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("chrome trace is not valid JSON")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("exported %d events, want 3", len(doc.TraceEvents))
	}
	if ph := doc.TraceEvents[0]["ph"]; ph != "X" {
		t.Errorf("duration event phase %v, want X", ph)
	}
	if ph := doc.TraceEvents[1]["ph"]; ph != "i" {
		t.Errorf("instant event phase %v, want i", ph)
	}
	if name := doc.TraceEvents[1]["name"]; !strings.Contains(name.(string), "misspec") {
		t.Errorf("misspec event name %v", name)
	}
	if name := doc.TraceEvents[2]["name"]; name != "job-phase: queued" {
		t.Errorf("job-phase event name %v, want kind refined by cause", name)
	}
}

// TestSummarizeMetrics: per-invocation folding must attribute counts to the
// right invocation and bucket unscoped events under -1.
func TestSummarizeMetrics(t *testing.T) {
	events := []Event{
		{Kind: KRegionInvoke, DurNS: 100, Invocation: 0},
		{Kind: KSpanStart, Invocation: 0},
		{Kind: KWorkerSpawn, Invocation: 0},
		{Kind: KWorkerSpawn, Invocation: 0},
		{Kind: KMisspec, Invocation: 0},
		{Kind: KRecovery, Invocation: 0},
		{Kind: KInstall, A: 64, Invocation: 0},
		{Kind: KCommit, A: 3, Invocation: 0},
		{Kind: KSeqFallback, Invocation: 1},
		{Kind: KCOWCopy, Invocation: -1},
	}
	ms := Summarize(events)
	if len(ms) != 3 {
		t.Fatalf("got %d invocation buckets, want 3", len(ms))
	}
	if ms[0].Invocation != -1 || ms[0].COWCopies != 1 {
		t.Errorf("unscoped bucket wrong: %+v", ms[0])
	}
	m0 := ms[1]
	if m0.Spans != 1 || m0.Workers != 2 || m0.Misspecs != 1 || m0.Recoveries != 1 ||
		m0.InstalledBytes != 64 || m0.CommittedIO != 3 || m0.WallNS != 100 {
		t.Errorf("invocation 0 metrics wrong: %+v", m0)
	}
	if ms[2].Fallbacks != 1 {
		t.Errorf("invocation 1 fallbacks %d, want 1", ms[2].Fallbacks)
	}

	sum := FormatSummary(events)
	for _, want := range []string{"region-invoke", "seq-fallback", "Per-invocation"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}
