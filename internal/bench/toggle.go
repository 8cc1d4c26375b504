package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"privateer/internal/analysis"
	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/progs"
	"privateer/internal/specrt"
	"privateer/internal/transform"
	"privateer/internal/vm"
)

// The toggle experiments measure what one compile-time mechanism buys by
// turning it off, the way the paper's evaluation attributes its results
// (section 4.5: "other checks are proved successful at compile time and
// are elided"). Each benchmark is compiled twice, mechanism off and on, and
// both builds run speculatively on the same input. The builds differ in one
// core.Options switch only: allocation routing, check insertion, outlining
// and the runtime are shared, so the deltas isolate the mechanism. Every
// row records whether the "on" build reproduced the "off" build byte for
// byte (it must) and whether both match the sequential reference.

// toggle is one compile-time mechanism the toggle runner switches off.
type toggle struct {
	// name is the experiment key.
	name string
	// title heads the text table.
	title string
	// off is the pipeline configuration without the mechanism; the "on"
	// build uses the zero core.Options.
	off core.Options
	// rewrites names the static rewrite counters of the "on" build, in
	// display order.
	rewrites []string
	// count adds one region's static rewrite counters to m.
	count func(st *transform.Stats, m map[string]int)
}

// toggles is the table the runner is driven by.
var toggles = []toggle{
	{
		name:     "elision",
		title:    "Check elision & span promotion: postprocess pass off vs on",
		off:      core.Options{DisablePostprocess: true},
		rewrites: []string{"join", "elim", "inv", "dense", "sparse", "uo"},
		count: func(st *transform.Stats, m map[string]int) {
			m["join"] += st.Joined
			m["elim"] += st.Eliminated
			m["inv"] += st.InvPromoted
			m["dense"] += st.DensePromoted
			m["sparse"] += st.SparsePromoted
			m["uo"] += st.HeapRedundantUO
		},
	},
	{
		name:  "staticsep",
		title: "Static separation prover: proofs off vs on, elision enabled in both builds",
		off:   core.Options{DisableStaticSep: true},
		rewrites: []string{"proven", string(analysis.RuleReadOnly), string(analysis.RuleIterLocal),
			string(analysis.RuleCoveredWrite), string(analysis.RuleAffineDisjoint),
			string(analysis.RuleRedux), "discharged", "priv_dropped", "redux_dropped"},
		count: func(st *transform.Stats, m map[string]int) {
			for rule, n := range st.ProvenByRule {
				m["proven"] += n
				m[string(rule)] += n
			}
			m["discharged"] += st.StaticProven
			m["priv_dropped"] += st.StaticPrivMarksDropped
			m["redux_dropped"] += st.StaticReduxMarksDropped
		},
	},
	{
		name:     "sep-elision",
		title:    "Ablation: static separation-check elision",
		off:      core.Options{DisableElision: true},
		rewrites: []string{"elided"},
		count: func(st *transform.Stats, m map[string]int) {
			m["elided"] += st.SeparationElided
		},
	},
}

func toggleNamed(name string) (*toggle, error) {
	for i := range toggles {
		if toggles[i].name == name {
			return &toggles[i], nil
		}
	}
	return nil, fmt.Errorf("unknown toggle %q", name)
}

// ToggleBuild is one build's measurements.
type ToggleBuild struct {
	// PrivChecks counts dynamic privacy checks executed (reads + writes; a
	// span counts once however many bytes it covers) and SepChecks dynamic
	// separation checks.
	PrivChecks int64 `json:"priv_checks"`
	SepChecks  int64 `json:"sep_checks"`
	// NS is the best speculative-run wall clock over the repetitions. Wall
	// clock measures the interpreter on this host and is noisy; the
	// deterministic figures are Sim and EndToEnd.
	NS int64 `json:"ns"`
	// Sim is the whole-program simulated time and EndToEnd the row's
	// SeqSteps / Sim: the paper's Figure 6 whole-program speedup.
	Sim      int64   `json:"sim"`
	EndToEnd float64 `json:"end_to_end"`

	ret uint64
	out string
}

// ToggleRow is one benchmark program built with a mechanism off and on.
type ToggleRow struct {
	// Name and Input identify the workload.
	Name  string `json:"name"`
	Input string `json:"input"`
	// SeqNS and SeqSteps are the unmodified sequential program's wall
	// clock and step count.
	SeqNS    int64 `json:"seq_ns"`
	SeqSteps int64 `json:"seq_steps"`
	// Off and On are the two builds.
	Off ToggleBuild `json:"off"`
	On  ToggleBuild `json:"on"`
	// Rewrites holds the "on" build's static rewrite counters summed over
	// the program's parallel regions, keyed by the toggle's counter names.
	Rewrites map[string]int `json:"rewrites"`
	// BeforeChecks / AfterChecks are the off / on builds' dynamic privacy
	// plus separation checks.
	BeforeChecks int64 `json:"before_checks"`
	AfterChecks  int64 `json:"after_checks"`
	// BaselineMatch reports whether the "on" build reproduced the "off"
	// build's return value and output byte for byte (must always hold).
	BaselineMatch bool `json:"baseline_match"`
	// SeqMatch additionally compares both against the sequential reference
	// (false only for FP-reduction fold-order differences).
	SeqMatch bool `json:"seq_match"`
}

// ToggleReport bundles one toggle experiment's rows.
type ToggleReport struct {
	// Toggle names the mechanism switched off.
	Toggle string `json:"toggle"`
	// Input is the input class and Workers the speculative worker count.
	Input   string `json:"input"`
	Workers int    `json:"workers"`
	// Programs holds one row per benchmark.
	Programs []ToggleRow `json:"programs"`
}

// RunToggle runs the named toggle experiment ("elision", "staticsep" or
// "sep-elision") over the configured programs at cfg.Input with
// cfg.FixedWorkers workers, keeping the best wall clock of reps runs per
// build.
func RunToggle(cfg Config, name string, reps int) (*ToggleReport, error) {
	tg, err := toggleNamed(name)
	if err != nil {
		return nil, err
	}
	rep := &ToggleReport{Toggle: name, Input: cfg.Input, Workers: cfg.FixedWorkers}
	for _, p := range progs.All() {
		if len(cfg.Programs) > 0 && !containsString(cfg.Programs, p.Name) {
			continue
		}
		in, err := p.Input(cfg.Input)
		if err != nil {
			return nil, err
		}
		row, err := tg.run(p, in, cfg.FixedWorkers, reps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		rep.Programs = append(rep.Programs, row)
	}
	return rep, nil
}

// run measures one program: the sequential reference, then the off and on
// builds.
func (tg *toggle) run(p *progs.Program, in progs.Input, workers, reps int) (ToggleRow, error) {
	row := ToggleRow{Name: p.Name, Input: in.Name, Rewrites: map[string]int{}}
	t0 := time.Now()
	seqIt := interp.New(p.Build(in), vm.NewAddressSpace())
	seqRet, err := seqIt.Run()
	row.SeqNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return row, fmt.Errorf("sequential: %w", err)
	}
	row.SeqSteps = seqIt.Steps

	if row.Off, _, err = measureBuild(p, in, tg.off, workers, reps, row.SeqSteps); err != nil {
		return row, fmt.Errorf("off build: %w", err)
	}
	var onPar *core.Parallelized
	if row.On, onPar, err = measureBuild(p, in, core.Options{}, workers, reps, row.SeqSteps); err != nil {
		return row, fmt.Errorf("on build: %w", err)
	}
	for _, k := range tg.rewrites {
		row.Rewrites[k] = 0
	}
	for _, ri := range onPar.Regions {
		tg.count(ri.TStats, row.Rewrites)
	}

	row.BeforeChecks = row.Off.PrivChecks + row.Off.SepChecks
	row.AfterChecks = row.On.PrivChecks + row.On.SepChecks
	row.BaselineMatch = row.On.ret == row.Off.ret && row.On.out == row.Off.out
	row.SeqMatch = row.BaselineMatch && row.On.ret == seqRet && row.On.out == seqIt.Out.String()
	return row, nil
}

// measureBuild compiles p at in with opts, runs the build reps times and
// keeps the best wall clock; the counters, simulated time and output are
// deterministic, so the last run's stand for all.
func measureBuild(p *progs.Program, in progs.Input, opts core.Options, workers, reps int, seqSteps int64) (ToggleBuild, *core.Parallelized, error) {
	b := ToggleBuild{NS: -1}
	par, err := core.Parallelize(p.Build(in), opts)
	if err != nil {
		return b, nil, err
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		rt, ret, err := core.Run(par, specrt.Config{Workers: workers})
		d := time.Since(t0).Nanoseconds()
		if err != nil {
			return b, nil, err
		}
		if b.NS < 0 || d < b.NS {
			b.NS = d
		}
		st := rt.Stats.Snapshot()
		b.PrivChecks = st.PrivReadChecks + st.PrivWriteChecks
		b.SepChecks = st.SeparationChecks
		b.Sim = rt.Sim.Time()
		b.ret, b.out = ret, rt.Output()
	}
	b.EndToEnd = nsRatio(seqSteps, b.Sim)
	return b, par, nil
}

// JSON renders the report machine-readably.
func (r *ToggleReport) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Format renders the report as an aligned off/on table.
func (r *ToggleReport) Format() string {
	tg, err := toggleNamed(r.Toggle)
	if err != nil {
		return err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%s inputs, %d workers)\n\n", tg.title, r.Input, r.Workers)
	sb.WriteString("rewrites are static sites in the on build, checks are dynamic, ms is best wall clock,\n" +
		"wall/sim are off/on ratios, end-to-end is sequential steps over simulated time (Figure 6)\n")
	rows := make([][]string, 0, len(r.Programs))
	bestCut, identical := 0.0, 0
	for _, m := range r.Programs {
		var rw []string
		for _, k := range tg.rewrites {
			if n := m.Rewrites[k]; n > 0 {
				rw = append(rw, fmt.Sprintf("%s:%d", k, n))
			}
		}
		if len(rw) == 0 {
			rw = []string{"-"}
		}
		base := "yes"
		if m.BaselineMatch {
			identical++
		} else {
			base = "NO"
		}
		seq := "yes"
		if !m.SeqMatch {
			seq = "fp-bits"
		}
		if cut := nsRatio(m.BeforeChecks, m.AfterChecks); cut > bestCut {
			bestCut = cut
		}
		rows = append(rows, []string{
			m.Name,
			m.Input,
			strings.Join(rw, " "),
			fmt.Sprintf("%d", m.Off.PrivChecks),
			fmt.Sprintf("%d", m.On.PrivChecks),
			fmt.Sprintf("%d", m.Off.SepChecks),
			fmt.Sprintf("%d", m.On.SepChecks),
			fmt.Sprintf("%.1f", float64(m.Off.NS)/1e6),
			fmt.Sprintf("%.1f", float64(m.On.NS)/1e6),
			fmt.Sprintf("%.2fx", nsRatio(m.Off.NS, m.On.NS)),
			fmt.Sprintf("%.2fx", nsRatio(m.Off.Sim, m.On.Sim)),
			fmt.Sprintf("%.2fx", m.Off.EndToEnd),
			fmt.Sprintf("%.2fx", m.On.EndToEnd),
			base,
			seq,
		})
	}
	sb.WriteString(table([]string{
		"program", "input", "rewrites", "priv off", "priv on", "sep off", "sep on",
		"off ms", "on ms", "wall", "sim", "end-to-end off", "end-to-end on", "=base", "=seq"}, rows))
	fmt.Fprintf(&sb, "\nheadline: dynamic checks drop up to %.1fx; %d/%d rows bit-identical to the off build\n",
		bestCut, identical, len(r.Programs))
	return sb.String()
}
