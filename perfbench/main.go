// Command perfbench is the repository's wall-clock benchmark. It runs one
// named workload from outside the system, timing calls into each module's
// public functions in a single process, checks every output against the
// native reference programs, and prints each metric by name with its unit.
//
//	perfbench --workload run-ref --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured untraced; with --trace 1 they are the
// per-layer ones, taken from a traced run that also writes its spans and
// the runtime's events under --trace-dir. README.md maps every layer metric to
// the end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"privateer/internal/progs"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	nproc    int
	// order is the seeded order in which programs are visited; the seed
	// picks nothing else except the served job sequence.
	order []*progs.Program
	rng   *rand.Rand
	// rec is nil in an untraced run.
	rec *recorder

	metrics map[string]metric
	derived map[string]bool

	// mu guards the accounting below: served jobs report from the client
	// goroutines.
	mu        sync.Mutex
	attempted int64
	failed    int64
	rejected  int64
	// counts holds the first observation of every exact count; a later
	// observation that differs is a mismatch and fails the run.
	counts     map[string]int64
	mismatches []string
}

func newBench(workload string, seed int64, seconds time.Duration, traced bool) *bench {
	b := &bench{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		nproc:    runtime.NumCPU(),
		rng:      rand.New(rand.NewSource(seed)),
		metrics:  map[string]metric{},
		derived:  map[string]bool{},
		counts:   map[string]int64{},
	}
	all := progs.All()
	for _, i := range b.rng.Perm(len(all)) {
		b.order = append(b.order, all[i])
	}
	if traced {
		b.rec = newRecorder()
	}
	return b
}

func (b *bench) set(name string, value float64, unit string) {
	b.metrics[name] = metric{Value: value, Unit: unit}
}

// setDerived records a metric computed from other measurements rather than
// timed around a call of its own.
func (b *bench) setDerived(name string, value float64, unit string) {
	b.set(name, value, unit)
	b.derived[name] = true
}

// op counts one attempted operation and, when err is non-nil, its failure.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
}

// count records an exact count under key; every later observation of the
// same key must repeat it.
func (b *bench) count(key string, v int64) {
	b.mu.Lock()
	first, seen := b.counts[key]
	if !seen {
		b.counts[key] = v
	}
	b.mu.Unlock()
	if seen && first != v {
		b.mismatch(fmt.Sprintf("count %s changed between repetitions: %d then %d", key, first, v))
	}
}

// mismatch records a failed exact-count check.
func (b *bench) mismatch(msg string) {
	b.mu.Lock()
	b.mismatches = append(b.mismatches, msg)
	b.mu.Unlock()
}

// recFor returns the recorder for a traced step of a traced run, nil
// otherwise.
func (b *bench) recFor(traced bool) *recorder {
	if traced {
		return b.rec
	}
	return nil
}

// another reports whether to take one more step after step number step,
// which took last: every run takes at least two steps (a traced run needs
// one untraced and one traced), and more while one as long as last still
// ends inside the measured window that began at start.
func (b *bench) another(start time.Time, step int, last time.Duration) bool {
	return step < 1 || time.Since(start)+last <= b.seconds
}

// workloads maps each workload name to the method that runs it.
var workloads = map[string]func(*bench) error{
	"compile-ref": (*bench).compileRef,
	"run-ref":     (*bench).runRef,
	"serve-train": (*bench).serveTrain,
}

func main() {
	workload := flag.String("workload", "", "workload: compile-ref, run-ref or serve-train")
	seed := flag.Int64("seed", 1, "seed for the program visiting order and the served job sequence")
	seconds := flag.Int("seconds", 30, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	traceDir := flag.String("trace-dir", ".bench_build", "directory a traced run writes trace-<workload>.json into")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	want, err := listedMetrics("BENCHMARK.json", *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := newBench(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	out, err := b.execute(want, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// execute runs the workload, writes the trace of a traced run into
// traceDir, and returns the result holding exactly the metrics in want. A
// wrong output or a changed count makes the result incorrect; a workload
// that cannot finish, or misses a metric in want, is an error.
func (b *bench) execute(want []string, traceDir string) (result, error) {
	if err := workloads[b.workload](b); err != nil {
		return result{}, err
	}
	if b.rec != nil {
		b.setDerived("failed_frac", float64(b.failed)/float64(b.attempted), "frac")
		b.set("proc.peak_rss_mb", peakRSSMB(), "MB")
		path := filepath.Join(traceDir, "trace-"+b.workload+".json")
		if err := b.rec.write(path, b.workload, b.seed); err != nil {
			return result{}, err
		}
		b.reportSelfTimes()
	}
	b.report(want)
	return b.result(want)
}

// result collects the metrics in want into the run's result line.
func (b *bench) result(want []string) (result, error) {
	for _, msg := range b.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
	}
	out := result{Correct: b.failed == 0 && len(b.mismatches) == 0,
		Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, name := range want {
		m, ok := b.metrics[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		out.Metrics[name] = m
	}
	if len(missing) > 0 {
		return result{}, fmt.Errorf("workload %s did not produce %s", b.workload, strings.Join(missing, ", "))
	}
	return out, nil
}

// listedMetrics reads the metric names a run must print from the benchmark
// definition: the end-to-end list, or the per-layer list when traced.
func listedMetrics(path string, traced bool) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var def struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	list := def.EndToEnd
	if traced {
		list = def.PerLayer
	}
	names := make([]string, len(list))
	for i, m := range list {
		names[i] = m.Name
	}
	return names, nil
}

// report prints the produced metrics as a table on standard error, marking
// the derived ones.
func (b *bench) report(want []string) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d nproc=%d GOMAXPROCS=%d %s\n",
		b.workload, b.seed, b.nproc, runtime.GOMAXPROCS(0), runtime.Version())
	for _, name := range want {
		m, ok := b.metrics[name]
		if !ok {
			continue
		}
		note := ""
		if b.derived[name] {
			note = "  (derived)"
		}
		fmt.Fprintf(os.Stderr, "  %-40s %16.6g %s%s\n", name, m.Value, m.Unit, note)
	}
}

// reportSelfTimes prints each traced span name's total and self time.
func (b *bench) reportSelfTimes() {
	fmt.Fprintln(os.Stderr, "span self times (traced run):")
	for _, st := range b.rec.selfTimes() {
		fmt.Fprintf(os.Stderr, "  %-22s n=%-6d total=%10.2fms self=%10.2fms\n",
			st.Name, st.Count, float64(st.TotalNS)/1e6, float64(st.SelfNS)/1e6)
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle of xs (the mean of the two middles for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
