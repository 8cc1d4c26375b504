package bench

import (
	"testing"

	"privateer/internal/progs"
)

// TestElisionParity is the differential parity gate for every compile-time
// toggle (postprocess elision, the static separation prover, static
// separation-check elision): for every benchmark program the "on" build must
// reproduce the "off" build byte for byte — same return value, same printed
// output — while executing no more dynamic checks, and each mechanism must
// actually rewrite something on enough programs to be worth its code. The
// test compiles under both dispatch modes; the slowpath CI lane runs it with
// -tags=slowpath, so the tree-walk reference executor arbitrates the
// comparison there.
func TestElisionParity(t *testing.T) {
	// gates: at least min programs must have a nonzero rewrite counter key
	// ("" = the sum of all the toggle's counters).
	gates := map[string]struct {
		key string
		min int
	}{
		"elision":     {"", 1},
		"staticsep":   {"proven", 2},
		"sep-elision": {"elided", 1},
	}
	measured, rewriting := map[string]int{}, map[string]int{}
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for i := range toggles {
				tg := &toggles[i]
				t.Run(tg.name, func(t *testing.T) {
					row, err := tg.run(p, p.Train, 4, 1)
					if err != nil {
						t.Fatal(err)
					}
					if !row.BaselineMatch {
						t.Errorf("on build diverged from off build: ret %#x vs %#x, output %d vs %d bytes",
							row.On.ret, row.Off.ret, len(row.On.out), len(row.Off.out))
					}
					if row.AfterChecks > row.BeforeChecks {
						t.Errorf("on build ran more checks (%d) than off build (%d)",
							row.AfterChecks, row.BeforeChecks)
					}
					// Float-result programs may differ from sequential in
					// fold order (reduction reassociation); everything else
					// must match exactly.
					if !p.FloatResult && !row.SeqMatch {
						t.Errorf("on build diverged from sequential")
					}
					measured[tg.name]++
					n := 0
					for k, v := range row.Rewrites {
						if gates[tg.name].key == "" || k == gates[tg.name].key {
							n += v
						}
					}
					if n > 0 {
						rewriting[tg.name]++
					}
				})
			}
		})
	}
	for _, tg := range toggles {
		if measured[tg.name] < len(progs.All()) {
			continue // a -run filter selected a subset of the programs
		}
		if g := gates[tg.name]; rewriting[tg.name] < g.min {
			t.Errorf("%s: %d programs with %q rewrites > 0, want at least %d",
				tg.name, rewriting[tg.name], g.key, g.min)
		}
	}
}
