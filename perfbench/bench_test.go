package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privateer/internal/interp"
	"privateer/internal/progs"
	"privateer/internal/vm"
)

// TestOracleCatchesPlantedFaults runs every program sequentially at train,
// then plants a corrupted output and a wrong return value into the real
// result; the oracle must accept the result and catch both plants, and
// the run must count each caught plant as a failure.
func TestOracleCatchesPlantedFaults(t *testing.T) {
	b := newBench("serve-train", 1, 0, false)
	for _, p := range progs.All() {
		want := referenceOf(p, p.Train)
		it := interp.New(p.Build(p.Train), vm.NewAddressSpace())
		ret, err := it.Run()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		out := it.Out.String()
		if err := checkResult(p, want, ret, out); err != nil {
			t.Fatalf("%s: real result rejected: %v", p.Name, err)
		}
		if err := checkResult(p, want, ret, corrupt(out)); err == nil {
			t.Errorf("%s: corrupted output not caught", p.Name)
		} else {
			b.op(err)
		}
		if err := checkResult(p, want, wrongRet(p, ret), out); err == nil {
			t.Errorf("%s: wrong return value not caught", p.Name)
		} else {
			b.op(err)
		}
	}
	if b.failed != b.attempted || b.failed != int64(2*len(progs.All())) {
		t.Fatalf("failed %d of %d attempted, want every plant counted", b.failed, b.attempted)
	}
}

// corrupt changes one digit of out, or appends one when out has none.
func corrupt(out string) string {
	i := strings.IndexAny(out, "123456789")
	if i < 0 {
		return out + "0"
	}
	c := byte('1')
	if out[i] == '1' {
		c = '2'
	}
	return out[:i] + string(c) + out[i+1:]
}

// wrongRet returns a result that is wrong beyond the float tolerance.
func wrongRet(p *progs.Program, ret uint64) uint64 {
	if p.FloatResult {
		return math.Float64bits(math.Float64frombits(ret)*1.001 + 1)
	}
	return ret + 1
}

func TestFloatToleranceAcceptsLastBits(t *testing.T) {
	want := reference{ret: math.Float64bits(1.5), out: "x 0.25\n"}
	p := &progs.Program{Name: "f", FloatResult: true}
	got := math.Float64bits(1.5 * (1 + 1e-13))
	if err := checkResult(p, want, got, "x 0.2500000000001\n"); err != nil {
		t.Fatalf("last-bit difference rejected: %v", err)
	}
	p.FloatResult = false
	if err := checkResult(p, want, got, want.out); err == nil {
		t.Fatal("integer program accepted a different result")
	}
}

func TestCountMismatchNamesMetric(t *testing.T) {
	b := newBench("run-ref", 1, 0, false)
	b.count("specrt.priv_checks.dijkstra", 10)
	b.count("specrt.priv_checks.dijkstra", 10)
	if len(b.mismatches) != 0 {
		t.Fatalf("repeated count flagged: %v", b.mismatches)
	}
	b.count("specrt.priv_checks.dijkstra", 11)
	if len(b.mismatches) != 1 || !strings.Contains(b.mismatches[0], "specrt.priv_checks.dijkstra") {
		t.Fatalf("mismatch not named: %v", b.mismatches)
	}
	res, err := b.result(nil)
	if err != nil || res.Correct {
		t.Fatal("a run with a changed count reported correct")
	}
}

// tracedRun executes a short traced serve-train run and returns its result
// and the parsed trace file.
func tracedRun(t *testing.T, seed int64, want []string) (result, traceFile) {
	t.Helper()
	dir := t.TempDir()
	b := newBench("serve-train", seed, 0, true)
	res, err := b.execute(want, dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trace-serve-train.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	return res, tf
}

// TestTracedRunCoversEveryLayer checks that a traced run produces every
// per-layer metric BENCHMARK.json lists, that its written trace parses and
// holds a span for each layer's public call plus the runtime's phase
// events, and that the exact counts repeat across two seeds.
func TestTracedRunCoversEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve, compile and run stages")
	}
	want, err := listedMetrics("../BENCHMARK.json", true)
	if err != nil {
		t.Fatal(err)
	}
	res, tf := tracedRun(t, 1, want)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run incorrect: %+v", res)
	}
	spans := map[string]bool{}
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
		spans[s.Name] = true
	}
	for _, layer := range []string{"progs.build", "profiling.run", "analysis.pointsto",
		"core.parallelize", "interp.run", "specrt.run", "service.submit", "service.wait"} {
		if !spans[layer] {
			t.Errorf("trace has no %s span", layer)
		}
	}
	phases := map[string]bool{}
	for _, ev := range tf.Events {
		phases[ev.Phase] = true
	}
	for _, ph := range []string{"queued", "spawn", "run", "merge", "commit"} {
		if !phases[ph] {
			t.Errorf("trace has no runtime %s event", ph)
		}
	}

	res2, _ := tracedRun(t, 2, want)
	for _, name := range want {
		m := res.Metrics[name]
		if m.Unit != "count" || strings.HasPrefix(name, "service.") {
			continue // served-job counts follow the run's length
		}
		if got := res2.Metrics[name]; got.Value != m.Value {
			t.Errorf("count %s differs across seeds: %v then %v", name, m.Value, got.Value)
		}
	}
}
