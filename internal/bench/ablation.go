package bench

import (
	"fmt"

	"privateer/internal/core"
	"privateer/internal/progs"
	"privateer/internal/specrt"
)

// Ablations quantify the design choices DESIGN.md calls out:
//
//   - checkpoint period (section 5.2: "checkpoints are only collected and
//     validated after a large number of iterations — this reduces overhead
//     in the common case, but discards and recomputes a larger amount of
//     work upon misspeculation");
//   - static check elision (section 4.5: "other checks are proved
//     successful at compile time and are elided"), measured by the toggle
//     runner as "sep-elision" (toggle.go);
//   - value prediction (section 6.1: dijkstra's queue pattern is only
//     privatizable with it).

// CheckpointAblationRow is one (period, rate) measurement.
type CheckpointAblationRow struct {
	// Period is the checkpoint interval in iterations.
	Period int64
	// CleanSpeedup is the speedup with no misspeculation.
	CleanSpeedup float64
	// MisspecSpeedup is the speedup with injected misspeculation.
	MisspecSpeedup float64
	// Misspecs is the observed misspeculation count in the injected run.
	Misspecs int64
}

// CheckpointAblationResult sweeps the checkpoint period for one program.
type CheckpointAblationResult struct {
	Program string
	Workers int
	Rate    float64
	Rows    []CheckpointAblationRow
}

// AblationCheckpointPeriod sweeps the checkpoint period on one program,
// measuring both the clean overhead (small periods validate and merge more
// often) and the recovery cost under misspeculation (large periods discard
// more work).
func (s *Suite) AblationCheckpointPeriod(program string, periods []int64, rate float64) (*CheckpointAblationResult, error) {
	var pr *prepared
	for _, p := range s.programs {
		if p.prog.Name == program {
			pr = p
		}
	}
	if pr == nil {
		return nil, fmt.Errorf("program %q not in suite", program)
	}
	res := &CheckpointAblationResult{Program: program, Workers: s.Cfg.FixedWorkers, Rate: rate}
	for _, k := range periods {
		clean, err := pr.runPrivateer(specrt.Config{
			Workers: s.Cfg.FixedWorkers, CheckpointPeriod: k,
		})
		if err != nil {
			return nil, err
		}
		dirty, err := pr.runPrivateer(specrt.Config{
			Workers: s.Cfg.FixedWorkers, CheckpointPeriod: k,
			MisspecRate: rate, Seed: 0xFEED,
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, CheckpointAblationRow{
			Period:         k,
			CleanSpeedup:   pr.speedup(clean),
			MisspecSpeedup: pr.speedup(dirty),
			Misspecs:       dirty.Stats.Snapshot().Misspecs,
		})
	}
	return res, nil
}

// Format renders the sweep.
func (r *CheckpointAblationResult) Format() string {
	header := []string{"Period", "Clean", fmt.Sprintf("Misspec %.3g%%", r.Rate*100), "Misspecs"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Period),
			fmt.Sprintf("%.2fx", row.CleanSpeedup),
			fmt.Sprintf("%.2fx", row.MisspecSpeedup),
			fmt.Sprintf("%d", row.Misspecs),
		})
	}
	return fmt.Sprintf("Ablation: checkpoint period (%s, %d workers)\n", r.Program, r.Workers) +
		table(header, rows)
}

// ValuePredAblationRow records whether the hottest loop survives selection
// without value prediction, and how much execution time the selected
// regions cover in each configuration.
type ValuePredAblationRow struct {
	Program string
	// HotWith/HotWithout: is the hottest loop selected?
	HotWith    bool
	HotWithout bool
	// CoverageWith/CoverageWithout: selected regions' share of profiled
	// execution time (percent).
	CoverageWith    float64
	CoverageWithout float64
	// Reason is the hottest loop's rejection reason without prediction.
	Reason string
}

// ValuePredAblationResult quantifies the enabling effect of value
// prediction (dijkstra's queue pattern requires it, per section 6.1).
type ValuePredAblationResult struct {
	Rows []ValuePredAblationRow
}

// AblationValuePrediction compiles every benchmark with value prediction
// disabled and reports which hot loops stop being parallelizable.
func AblationValuePrediction(cfg Config) (*ValuePredAblationResult, error) {
	res := &ValuePredAblationResult{}
	for _, p := range progs.All() {
		if len(cfg.Programs) > 0 && !containsString(cfg.Programs, p.Name) {
			continue
		}
		in := p.Train
		with, err := core.Parallelize(p.Build(in), core.Options{})
		if err != nil {
			return nil, err
		}
		without, err := core.Parallelize(p.Build(in), core.Options{DisableValuePrediction: true})
		if err != nil {
			return nil, err
		}
		row := ValuePredAblationRow{Program: p.Name}
		row.HotWith, row.CoverageWith, _ = hottestFate(with)
		row.HotWithout, row.CoverageWithout, row.Reason = hottestFate(without)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// hottestFate reports whether the hottest profiled loop was selected, the
// selected regions' coverage of execution time, and the hottest loop's
// rejection reason.
func hottestFate(par *core.Parallelized) (hotSelected bool, coveragePct float64, reason string) {
	var total, covered int64
	first := true
	for _, rep := range par.Reports {
		if total < rep.Steps {
			total = rep.Steps // reports are hottest-first; total ~ hottest loop
		}
		if rep.Selected {
			covered += rep.Steps
		}
		if first {
			hotSelected = rep.Selected
			reason = rep.Reason
			first = false
		}
	}
	if total > 0 {
		coveragePct = 100 * float64(covered) / float64(total)
		if coveragePct > 100 {
			coveragePct = 100
		}
	}
	return hotSelected, coveragePct, reason
}

// Format renders the comparison.
func (r *ValuePredAblationResult) Format() string {
	header := []string{"Program", "Hot loop (with VP)", "Hot loop (no VP)", "Coverage with/without", "Rejection without VP"}
	var rows [][]string
	for _, row := range r.Rows {
		fate := func(b bool) string {
			if b {
				return "selected"
			}
			return "rejected"
		}
		rows = append(rows, []string{
			row.Program,
			fate(row.HotWith),
			fate(row.HotWithout),
			fmt.Sprintf("%.0f%% / %.0f%%", row.CoverageWith, row.CoverageWithout),
			row.Reason,
		})
	}
	return "Ablation: value prediction's enabling effect\n" + table(header, rows)
}
