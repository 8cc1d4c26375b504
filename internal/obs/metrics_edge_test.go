package obs

import (
	"strings"
	"testing"
)

// TestSummarizeEmptyStream: an empty (or nil) event stream folds to no
// buckets, and FormatSummary still renders a headline.
func TestSummarizeEmptyStream(t *testing.T) {
	if ms := Summarize(nil); len(ms) != 0 {
		t.Errorf("Summarize(nil) = %d buckets, want 0", len(ms))
	}
	if ms := Summarize([]Event{}); len(ms) != 0 {
		t.Errorf("Summarize(empty) = %d buckets, want 0", len(ms))
	}
	out := FormatSummary(nil)
	if !strings.Contains(out, "0 recorded") {
		t.Errorf("empty summary headline wrong:\n%s", out)
	}
	if strings.Contains(out, "Per-invocation") {
		t.Error("empty summary must not render a per-invocation table")
	}
}

// TestSummarizeNegativeInvocationsFold: every negative invocation number
// denotes "outside any invocation" and must share the single -1 bucket,
// rendered as "-" by FormatSummary.
func TestSummarizeNegativeInvocationsFold(t *testing.T) {
	events := []Event{
		{Kind: KCOWCopy, Invocation: -1},
		{Kind: KTLBFlush, Invocation: -7},
		{Kind: KProtFault, Invocation: -2},
	}
	ms := Summarize(events)
	if len(ms) != 1 {
		t.Fatalf("got %d buckets, want 1 shared outside-bucket", len(ms))
	}
	m := ms[0]
	if m.Invocation != -1 || m.COWCopies != 1 || m.TLBFlushes != 1 || m.ProtFaults != 1 {
		t.Errorf("outside bucket wrong: %+v", m)
	}
	sum := FormatSummary(events)
	if !strings.Contains(sum, "\n-") {
		t.Errorf("outside bucket not rendered as '-':\n%s", sum)
	}
}

// TestSummarizeInterleavedInvocations: events arriving interleaved across
// invocations (the live stream order under concurrent workers) must still
// fold into per-invocation buckets, sorted by invocation number.
func TestSummarizeInterleavedInvocations(t *testing.T) {
	events := []Event{
		{Kind: KSpanStart, Invocation: 1},
		{Kind: KRegionInvoke, DurNS: 10, Invocation: 0},
		{Kind: KMisspec, Invocation: 1},
		{Kind: KCheckpoint, Invocation: 0},
		{Kind: KRegionInvoke, DurNS: 20, Invocation: 1},
		{Kind: KCheckpoint, Invocation: 1},
		{Kind: KMisspec, Invocation: 0},
		{Kind: KCOWCopy, Invocation: -1},
		{Kind: KCheckpoint, Invocation: 0},
	}
	ms := Summarize(events)
	if len(ms) != 3 {
		t.Fatalf("got %d buckets, want 3", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i-1].Invocation >= ms[i].Invocation {
			t.Fatalf("buckets out of order: %d before %d", ms[i-1].Invocation, ms[i].Invocation)
		}
	}
	m0, m1 := ms[1], ms[2]
	if m0.Invocation != 0 || m0.Checkpoints != 2 || m0.Misspecs != 1 || m0.WallNS != 10 {
		t.Errorf("invocation 0 wrong: %+v", m0)
	}
	if m1.Invocation != 1 || m1.Spans != 1 || m1.Checkpoints != 1 || m1.Misspecs != 1 || m1.WallNS != 20 {
		t.Errorf("invocation 1 wrong: %+v", m1)
	}
}

// TestCollectorPublishMetrics: the trace-stream health metrics must track
// the ring through wraparound, so a /metrics scrape reveals truncated
// traces.
func TestCollectorPublishMetrics(t *testing.T) {
	c := NewCollector(4)
	reg := NewRegistry()
	c.PublishMetrics(reg)
	scrape := func() string {
		var sb strings.Builder
		reg.WriteProm(&sb)
		return sb.String()
	}
	for i := 0; i < 3; i++ {
		c.Emit(Event{Kind: KCommit})
	}
	out := scrape()
	for _, want := range []string{
		"privateer_trace_events_total 3",
		"privateer_trace_dropped_events 0",
		"privateer_trace_ring_capacity 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("pre-wrap scrape missing %q:\n%s", want, out)
		}
	}
	for i := 0; i < 3; i++ {
		c.Emit(Event{Kind: KCommit})
	}
	out = scrape()
	for _, want := range []string{
		"privateer_trace_events_total 6",
		"privateer_trace_dropped_events 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("post-wrap scrape missing %q:\n%s", want, out)
		}
	}
	if dropped := c.Dropped(); dropped != 2 {
		t.Errorf("Dropped() = %d, want 2", dropped)
	}
	// PublishMetrics must tolerate nil receivers and nil registries.
	(*Collector)(nil).PublishMetrics(reg)
	c.PublishMetrics(nil)
}
