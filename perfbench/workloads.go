package main

import (
	"time"

	"privateer/internal/ir"
)

// End-to-end metrics, printed by every workload. pass_s is the median wall
// time of one pass over the workload's fixed unit of work; seq_s is the
// sequential interpreter's time over the same five programs at the same
// input class, the baseline every wall speedup divides by.
func (b *bench) endToEnd(pass, seq float64, setups []float64) {
	b.set("pass_s", pass, "s")
	b.set("seq_s", seq, "s")
	b.set("setup_s", median(setups), "s")
}

// traceOverhead reports how much slower the workload's own pass ran with
// tracing on than off, both measured in the same traced run.
func (b *bench) traceOverhead(plain, traced float64) {
	b.setDerived("trace_overhead_frac", traced/plain-1, "frac")
}

// compileRef: a cold core.Parallelize of every program at ref, each on a
// freshly built module, pass after pass; each compile is checked by running
// it once, and followed by three sequential runs of the program for seq_s.
// Set-up (references plus the first pass's modules) takes about 20 ms, so
// it is repeated ten times and its median reported; later passes rebuild
// their modules untimed.
func (b *bench) compileRef() error {
	var ps []*program
	var mods []*ir.Module
	var setups []float64
	for i := 0; i < 10; i++ {
		var d time.Duration
		ps, mods, d = b.setup("ref")
		setups = append(setups, d.Seconds())
	}
	plain, traced, seq := samples{}, samples{}, samples{}
	start := time.Now()
	for pass := 0; ; pass++ {
		t0 := time.Now()
		if pass > 0 {
			mods = mods[:0]
			for _, pr := range ps {
				mods = append(mods, pr.p.Build(pr.in))
			}
		}
		// A traced run alternates untraced and traced passes, so the
		// tracing overhead is measured within the run.
		rec, s := b.recFor(pass%2 == 1), plain
		if rec != nil {
			s = traced
		}
		pid := rec.open("compile.pass", "", 0)
		for i, pr := range ps {
			if err := b.compileOne(pr, mods[i], rec, pid, s); err != nil {
				return err
			}
			if err := b.checkCompiled(pr); err != nil {
				return err
			}
			// An untraced run keeps no compile alive, so every compile
			// starts from the same live heap whatever the visiting order.
			if b.rec == nil {
				pr.par = nil
			}
			for k := 0; k < 3; k++ {
				d, _, err := b.runSeq(pr, nil, 0)
				if err != nil {
					return err
				}
				seq.add("seq."+pr.p.Name, float64(d))
			}
		}
		rec.close(pid)
		if !b.another(start, pass, time.Since(t0)) {
			break
		}
	}
	if b.rec == nil {
		b.endToEnd(plain.sumMed("compile", ps)/1e9, seq.sumMed("seq", ps)/1e9, setups)
		return nil
	}
	if err := b.warm(ps); err != nil {
		return err
	}
	run := samples{}
	for i := 0; i < 3; i++ {
		if err := b.runAll(ps, b.rec, run); err != nil {
			return err
		}
	}
	b.compileLayers(ps, traced, run)
	b.runLayers(ps, run)
	if err := b.serveTour(); err != nil {
		return err
	}
	b.traceOverhead(plain.sumMed("compile", ps), traced.sumMed("compile", ps))
	return nil
}

// runRef: set-up compiles the five ref programs once and runs each once
// speculatively to warm its decode and worker pool; each repetition then
// runs every program sequentially and speculatively.
func (b *bench) runRef() error {
	t0 := time.Now()
	ps, mods, _ := b.setup("ref")
	compiled := samples{}
	if err := b.compileAll(ps, mods, b.rec, compiled); err != nil {
		return err
	}
	if err := b.warm(ps); err != nil {
		return err
	}
	setup := time.Since(t0).Seconds()

	plain, traced := samples{}, samples{}
	start := time.Now()
	for rep := 0; ; rep++ {
		t0 := time.Now()
		rec, s := b.recFor(rep%2 == 1), plain
		if rec != nil {
			s = traced
		}
		if err := b.runAll(ps, rec, s); err != nil {
			return err
		}
		if !b.another(start, rep, time.Since(t0)) {
			break
		}
	}
	if b.rec == nil {
		b.endToEnd(plain.sumMed("spec", ps)/1e9, plain.sumMed("seq", ps)/1e9, []float64{setup})
		return nil
	}
	b.compileLayers(ps, compiled, traced)
	b.runLayers(ps, traced)
	if err := b.serveTour(); err != nil {
		return err
	}
	b.traceOverhead(plain.sumMed("spec", ps), traced.sumMed("spec", ps))
	return nil
}

// serveTrain: round after round, a fresh service (one runner, nproc
// workers per invocation) is warmed with one job per program — the round's
// set-up — and then serves serveRoundJobs train jobs to two closed-loop
// clients. Each round also times sequential runs of the train programs for
// seq_s.
func (b *bench) serveTrain() error {
	ps, mods, _ := b.setup("train")
	var setups, walls, tracedWalls []float64
	var tracedJobs []jobSample
	var tracedWall time.Duration
	seq := samples{}
	start := time.Now()
	for round := 0; ; round++ {
		t0 := time.Now()
		rec := b.recFor(round%2 == 1)
		setup, wall, jobs, err := b.serveRound(ps, rec)
		if err != nil {
			return err
		}
		if rec == nil {
			setups = append(setups, setup.Seconds())
			walls = append(walls, wall.Seconds())
		} else {
			tracedWalls = append(tracedWalls, wall.Seconds())
			tracedJobs = append(tracedJobs, jobs...)
			tracedWall += wall
		}
		for i := 0; i < 10; i++ {
			for _, pr := range ps {
				d, _, err := b.runSeq(pr, nil, 0)
				if err != nil {
					return err
				}
				seq.add("seq."+pr.p.Name, float64(d))
			}
		}
		if !b.another(start, round, time.Since(t0)) {
			break
		}
	}
	if b.rec == nil {
		b.endToEnd(median(walls), seq.sumMed("seq", ps)/1e9, setups)
		return nil
	}
	b.serveLayers(ps, tracedJobs, tracedWall)
	compiled, run := samples{}, samples{}
	if err := b.compileAll(ps, mods, b.rec, compiled); err != nil {
		return err
	}
	if err := b.warm(ps); err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		if err := b.runAll(ps, b.rec, run); err != nil {
			return err
		}
	}
	b.compileLayers(ps, compiled, run)
	b.runLayers(ps, run)
	b.traceOverhead(median(walls), median(tracedWalls))
	return nil
}

// serveTour is the serve stage visited by the traced runs of the compile
// and run workloads: two traced rounds at train.
func (b *bench) serveTour() error {
	ps, _, _ := b.setup("train")
	var jobs []jobSample
	var wall time.Duration
	for i := 0; i < 2; i++ {
		_, w, js, err := b.serveRound(ps, b.rec)
		if err != nil {
			return err
		}
		jobs = append(jobs, js...)
		wall += w
	}
	b.serveLayers(ps, jobs, wall)
	return nil
}
