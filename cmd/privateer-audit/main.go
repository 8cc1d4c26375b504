// Command privateer-audit cross-examines the static separation prover on a
// benchmark: every compile-time privatization/read-only/reduction proof is
// re-derived independently, checked against a fresh profile of the same
// input, and monitored at runtime by the SepAudit oracle while the
// transformed program executes. Any claim a single oracle contradicts makes
// the command exit nonzero with a loud report.
//
// The -plant flag injects deliberately unsound proofs (the same knob as
// core.Options.PlantProofs) so the oracle chain itself can be exercised:
//
//	privateer-audit -prog dijkstra -input ref
//	privateer-audit -prog all -input train
//	privateer-audit -prog enc-md5 -plant '@digest=readonly'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"privateer/internal/audit"
	"privateer/internal/core"
	"privateer/internal/ir"
	"privateer/internal/progs"
	"privateer/internal/specrt"
)

func main() {
	var (
		progName = flag.String("prog", "all", "benchmark name, or \"all\"")
		input    = flag.String("input", "train", "input class: train, ref, alt, huge")
		workers  = flag.Int("workers", 4, "speculative worker count for the audited run")
		plant    = flag.String("plant", "", "comma-separated obj=rule pairs of proofs to plant (e.g. '@cfg=readonly')")
		asJSON   = flag.Bool("json", false, "emit the audit reports as JSON")
	)
	flag.Parse()
	if err := run(*progName, *input, *workers, *plant, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "privateer-audit:", err)
		os.Exit(1)
	}
}

// parsePlants turns the -plant flag value into core.Options.PlantProofs.
func parsePlants(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]string{}
	for _, pair := range strings.Split(s, ",") {
		obj, rule, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || obj == "" || rule == "" {
			return nil, fmt.Errorf("bad -plant entry %q (want obj=rule)", pair)
		}
		out[obj] = rule
	}
	return out, nil
}

func run(progName, input string, workers int, plant string, asJSON bool) error {
	plants, err := parsePlants(plant)
	if err != nil {
		return err
	}
	var targets []*progs.Program
	if progName == "all" {
		targets = progs.All()
	} else {
		p := progs.ByName(progName)
		if p == nil {
			return fmt.Errorf("unknown program %q", progName)
		}
		targets = []*progs.Program{p}
	}

	failed := false
	reports := map[string]*audit.Report{}
	for _, p := range targets {
		in, err := p.Input(input)
		if err != nil {
			return err
		}
		build := func() *ir.Module { return p.Build(in) }
		rep, err := audit.Run(build,
			core.Options{PlantProofs: plants},
			specrt.Config{Workers: workers})
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		reports[p.Name] = rep
		if !asJSON {
			fmt.Printf("== %s (%s) ==\n%s", p.Name, in, rep.Format())
		}
		if !rep.OK() {
			failed = true
		}
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("static separation claims contradicted by the dynamic oracle")
	}
	return nil
}
