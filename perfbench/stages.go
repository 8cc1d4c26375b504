package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"

	"privateer/internal/analysis"
	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/profiling"
	"privateer/internal/progs"
	"privateer/internal/service"
	"privateer/internal/specrt"
	"privateer/internal/vm"
)

// The three stages below are the layers' entry points as a user calls
// them: compile (core.Parallelize), run (interp and core.Run) and serve
// (service.Submit). A workload repeats one stage in its measured window;
// its traced run also visits the other two once, so every traced run
// reports every layer.

// program is one benchmark program's state at one input class.
type program struct {
	p     *progs.Program
	class string
	in    progs.Input
	ref   reference
	// par is the latest compile; prog and pool are the shared decode and
	// warmed worker pool every speculative run of par uses.
	par  *core.Parallelized
	prog *interp.Program
	pool *specrt.WorkerPool
}

func inputOf(p *progs.Program, class string) progs.Input {
	if class == "train" {
		return p.Train
	}
	return p.Ref
}

// samples collects repeated measurements by key.
type samples map[string][]float64

func (s samples) add(key string, v float64) { s[key] = append(s[key], v) }

func (s samples) med(key string) float64 { return median(s[key]) }

// sumMed is the sum over programs of each program's median of key.
func (s samples) sumMed(key string, ps []*program) float64 {
	t := 0.0
	for _, pr := range ps {
		t += s.med(key + "." + pr.p.Name)
	}
	return t
}

// setup computes the references and builds one fresh module per program:
// the work every stage needs before it can time anything.
func (b *bench) setup(class string) ([]*program, []*ir.Module, time.Duration) {
	quiesce()
	id := b.rec.open("setup", "", 0)
	t0 := time.Now()
	var ps []*program
	var mods []*ir.Module
	for _, p := range b.order {
		in := inputOf(p, class)
		ps = append(ps, &program{p: p, class: class, in: in, ref: referenceOf(p, in)})
		mods = append(mods, b.build(p, in, id))
	}
	elapsed := time.Since(t0)
	b.rec.close(id)
	return ps, mods, elapsed
}

func (b *bench) build(p *progs.Program, in progs.Input, parent int64) *ir.Module {
	id := b.rec.open("progs.build", p.Name, parent)
	defer b.rec.close(id)
	return p.Build(in)
}

// ---------------------------------------------------------------- compile

// compileAll cold-compiles every program on the fresh modules mods, in
// order; see compileOne.
func (b *bench) compileAll(ps []*program, mods []*ir.Module, rec *recorder, s samples) error {
	pass := rec.open("compile.pass", "", 0)
	defer rec.close(pass)
	for i, pr := range ps {
		if err := b.compileOne(pr, mods[i], rec, pass, s); err != nil {
			return err
		}
	}
	return nil
}

// compileOne cold-compiles pr on the fresh module mod and records the
// core.Parallelize wall time under "compile.<prog>". With rec non-nil it
// also times profiling.Run and analysis.ComputePointsTo on a second fresh
// module, outside the Parallelize call, so the compile can be attributed
// by layer.
func (b *bench) compileOne(pr *program, mod *ir.Module, rec *recorder, parent int64, s samples) error {
	name := pr.p.Name
	grp := rec.open("compile", name, parent)
	defer rec.close(grp)
	if rec != nil {
		t0 := time.Now()
		alone := b.build(pr.p, pr.in, grp)
		s.add("build."+name, float64(time.Since(t0)))
		quiesce()
		id := rec.open("profiling.run", name, grp)
		t0 = time.Now()
		prof, err := profiling.Run(alone)
		s.add("profiling."+name, float64(time.Since(t0)))
		rec.close(id)
		if err != nil {
			return fmt.Errorf("%s: profiling: %w", name, err)
		}
		b.count("profiling.steps."+name, prof.Steps)
		quiesce()
		id = rec.open("analysis.pointsto", name, grp)
		t0 = time.Now()
		analysis.ComputePointsTo(alone)
		s.add("pointsto."+name, float64(time.Since(t0)))
		rec.close(id)
	}
	quiesce()
	id := rec.open("core.parallelize", name, grp)
	t0 := time.Now()
	par, err := core.Parallelize(mod, core.Options{})
	s.add("compile."+name, float64(time.Since(t0)))
	rec.close(id)
	b.op(err)
	if err != nil {
		return fmt.Errorf("%s: parallelize: %w", name, err)
	}
	pr.par = par
	b.compileCounts(pr)
	return nil
}

// quiesce collects garbage and returns freed memory to the OS before a
// timed call, so that each call starts from the same heap, and the peak
// resident set it reaches does not depend on what ran before it.
func quiesce() { debug.FreeOSMemory() }

// compileCounts checks the exact counts a compile produces.
func (b *bench) compileCounts(pr *program) {
	name := pr.p.Name
	par := pr.par
	b.count("profiling.steps."+name, par.Profile.Steps)
	b.count("core.regions."+name, int64(len(par.Regions)))
	var checks int64
	for _, r := range par.Regions {
		t := r.TStats
		checks += int64(t.PrivacyReads + t.PrivacyWrites + t.SeparationChecks + t.Predicts)
	}
	b.count("transform.checks."+name, checks)
	var instrs int64
	for _, f := range par.Mod.SortedFuncs() {
		f.Instrs(func(*ir.Instr) { instrs++ })
	}
	b.count("transform.instrs_after."+name, instrs)
}

// checkCompiled runs pr's compiled module once under core.Run, with a
// private decode and no pool, and checks its result: the oracle for the
// compile stage's output.
func (b *bench) checkCompiled(pr *program) error {
	rt, ret, err := core.Run(pr.par, specrt.Config{Workers: b.nproc})
	if err == nil {
		err = checkResult(pr.p, pr.ref, ret, rt.Output())
	}
	b.op(err)
	return err
}

// warm gives each compiled program the shared decode and warmed worker
// pool its speculative runs use, and runs it once to fill both.
func (b *bench) warm(ps []*program) error {
	for _, pr := range ps {
		pr.prog = interp.SharedProgram(pr.par.Mod)
		pr.pool = specrt.NewWorkerPool(0)
		if _, err := b.runSpec(pr, nil, 0); err != nil {
			return err
		}
	}
	return nil
}

// compileLayers reports the compile stage's per-layer metrics from the
// traced compiles in s and the sequential runs in rs.
func (b *bench) compileLayers(ps []*program, s, rs samples) {
	var prof, pts, par, build, seq, rest float64
	var steps, regions, checks, instrs int64
	for _, pr := range ps {
		name := pr.p.Name
		pm, qm, cm := s.med("profiling."+name), s.med("pointsto."+name), s.med("compile."+name)
		b.set("profiling.run_ms."+name, pm/1e6, "ms")
		b.setDerived("profiling.share."+name, pm/cm, "frac")
		prof += pm
		pts += qm
		par += cm
		rest += cm - pm - qm
		build += s.med("build." + name)
		seq += rs.med("seq." + name)
		steps += b.counts["profiling.steps."+name]
		regions += b.counts["core.regions."+name]
		checks += b.counts["transform.checks."+name]
		instrs += b.counts["transform.instrs_after."+name]
	}
	b.set("profiling.steps", float64(steps), "count")
	b.setDerived("profiling.ns_per_step", prof/float64(steps), "ns")
	b.setDerived("profiling.overhead_x", prof/seq, "x")
	b.set("analysis.pointsto_ms", pts/1e6, "ms")
	b.set("core.parallelize_ms", par/1e6, "ms")
	b.setDerived("core.rest_ms", rest/1e6, "ms")
	b.set("progs.build_ms", build/1e6, "ms")
	b.set("core.regions", float64(regions), "count")
	b.set("transform.checks", float64(checks), "count")
	b.set("transform.instrs_after", float64(instrs), "count")
}

// -------------------------------------------------------------------- run

// runSeq interprets a freshly built, untransformed module of pr with
// interp.New+Run and checks the result. It returns the wall time and the
// interpreted step count.
func (b *bench) runSeq(pr *program, rec *recorder, parent int64) (time.Duration, int64, error) {
	mod := pr.p.Build(pr.in)
	quiesce()
	id := rec.open("interp.run", pr.p.Name, parent)
	t0 := time.Now()
	it := interp.New(mod, vm.NewAddressSpace())
	ret, err := it.Run()
	elapsed := time.Since(t0)
	rec.close(id)
	if err == nil {
		err = checkResult(pr.p, pr.ref, ret, it.Out.String())
	}
	b.op(err)
	return elapsed, it.Steps, err
}

// specRun is one speculative run's measurements.
type specRun struct {
	wall   time.Duration
	st     specrt.Stats
	sim    specrt.SimStats
	events []obs.Event
}

// runSpec executes pr's compiled module under core.Run at Workers = nproc
// with the shared decode and warmed pool, checks the result, and checks
// that the run did not misspeculate. With rec non-nil the runtime's own
// trace events are captured too.
func (b *bench) runSpec(pr *program, rec *recorder, parent int64) (specRun, error) {
	cfg := specrt.Config{Workers: b.nproc, Program: pr.prog, Pool: pr.pool}
	quiesce()
	var sink *eventSink
	var base int64
	if rec != nil {
		sink = &eventSink{}
		base = rec.now()
		cfg.Trace = obs.NewTracer(sink)
	}
	id := rec.open("specrt.run", pr.p.Name, parent)
	t0 := time.Now()
	rt, ret, err := core.Run(pr.par, cfg)
	elapsed := time.Since(t0)
	rec.close(id)
	if err == nil {
		err = checkResult(pr.p, pr.ref, ret, rt.Output())
	}
	b.op(err)
	if err != nil {
		return specRun{}, err
	}
	r := specRun{wall: elapsed, st: rt.Stats.Snapshot(), sim: rt.Sim}
	if sink != nil {
		r.events = sink.events()
		rec.addEvents(pr.p.Name, base, r.events)
	}
	if r.st.Misspecs != 0 {
		b.mismatch(fmt.Sprintf("count specrt.misspecs.%s is %d; the clean workloads must not misspeculate",
			pr.p.Name, r.st.Misspecs))
	}
	return r, nil
}

// runAll is one repetition of the run stage: for each program, a
// sequential run then a speculative one. Wall times land in s under
// "seq.<prog>" and "spec.<prog>"; a traced repetition also records the
// runtime's counters and events for runLayers.
func (b *bench) runAll(ps []*program, rec *recorder, s samples) error {
	pass := rec.open("run.pass", "", 0)
	defer rec.close(pass)
	for _, pr := range ps {
		name := pr.p.Name
		grp := rec.open("run", name, pass)
		seqWall, steps, err := b.runSeq(pr, rec, grp)
		if err != nil {
			rec.close(grp)
			return err
		}
		b.count("interp.steps."+name, steps)
		r, err := b.runSpec(pr, rec, grp)
		rec.close(grp)
		if err != nil {
			return err
		}
		s.add("seq."+name, float64(seqWall))
		s.add("spec."+name, float64(r.wall))
		b.specCounts(pr, r)
		if rec == nil {
			continue
		}
		st := r.st
		s.add("region."+name, float64(st.RegionWallNS))
		s.add("serial."+name, float64(r.wall.Nanoseconds()-st.RegionWallNS))
		s.add("busy."+name, float64(st.WorkerBusyNS))
		s.add("privcheck."+name, float64(st.PrivReadNS+st.PrivWriteNS))
		s.add("spawn."+name, float64(st.SpawnNS))
		s.add("checkpoint."+name, float64(st.CheckpointNS))
		s.add("join."+name, float64(st.JoinNS))
		s.add("sim_speedup."+name, float64(b.counts["interp.steps."+name])/float64(r.sim.Time()))
		totals := obs.PhaseTotals(obs.SummarizePhases(r.events))
		for _, ph := range runPhases {
			s.add("phase."+ph+"."+name, float64(totals[ph]))
		}
		addCalibration(s, st, r.events)
	}
	return nil
}

// runPhases are the runtime phases reported per run. Queue wait is a
// service phase; recovery is left out because a clean run has none, and a
// misspeculation already fails the run.
var runPhases = []string{obs.PhaseSpawn, obs.PhaseRun, obs.PhaseValidate,
	obs.PhaseMerge, obs.PhaseCommit}

// specCounts checks the exact counts of one speculative run.
func (b *bench) specCounts(pr *program, r specRun) {
	name := pr.p.Name
	st := r.st
	b.count("specrt.priv_checks."+name, st.PrivReadChecks+st.PrivWriteChecks)
	b.count("specrt.priv_bytes."+name, st.PrivReadBytes+st.PrivWriteBytes)
	b.count("specrt.sep_checks."+name, st.SeparationChecks)
	b.count("specrt.predictions."+name, st.Predictions)
	b.count("specrt.checkpoints."+name, st.Checkpoints)
	b.count("specrt.useful_steps."+name, r.sim.UsefulSteps)
	b.count("specrt.misspecs."+name, st.Misspecs)
	b.count("specrt.warm_spawns."+name, st.WarmSpawns)
}

// Calibration: each sim.go constant claims to model one runtime cost in
// interpreted steps. The measured wall cost per unit comes from the
// runtime's own counters and trace events; dividing it by the measured
// sequential ns/step converts it to steps.
var calibrations = []struct {
	name  string
	model int64
}{
	{"SpawnPerWorker", specrt.SimSpawnPerWorker},
	{"PrivacyPerByte", specrt.SimPrivacyPerByte},
	{"CheckpointPerByte", specrt.SimCheckpointPerByte},
	{"InstallPerByte", specrt.SimInstallPerByte},
	{"CommitPerIO", specrt.SimCommitPerIO},
}

// addCalibration accumulates each constant's wall nanoseconds ("ns") and
// unit count ("units") for one traced run.
func addCalibration(s samples, st specrt.Stats, evs []obs.Event) {
	acc := func(name string, ns, units int64) {
		s.add("calib."+name+".ns", float64(ns))
		s.add("calib."+name+".units", float64(units))
	}
	var spawnNS, spawned, mergeNS, scanned, installNS, installed, commitNS, ios int64
	for _, ev := range evs {
		switch ev.Kind {
		case obs.KSpawn:
			spawnNS += ev.DurNS
			spawned += ev.B
		case obs.KContribute:
			mergeNS += ev.DurNS
			scanned += ev.A
		case obs.KInstall:
			installNS += ev.DurNS
			installed += ev.A
		case obs.KCommit:
			commitNS += ev.DurNS
			ios += ev.A
		}
	}
	acc("SpawnPerWorker", spawnNS, spawned)
	acc("PrivacyPerByte", st.PrivReadNS+st.PrivWriteNS, st.PrivReadBytes+st.PrivWriteBytes)
	acc("CheckpointPerByte", mergeNS, scanned)
	acc("InstallPerByte", installNS, installed)
	acc("CommitPerIO", commitNS, ios)
}

// runLayers reports the run stage's per-layer metrics from the traced
// repetitions in s.
func (b *bench) runLayers(ps []*program, s samples) {
	seq := s.sumMed("seq", ps)
	var steps, useful int64
	var wallX, simX []float64
	for _, pr := range ps {
		name := pr.p.Name
		b.set("interp.seq_ms."+name, s.med("seq."+name)/1e6, "ms")
		b.set("specrt.spec_ms."+name, s.med("spec."+name)/1e6, "ms")
		w := s.med("seq."+name) / s.med("spec."+name)
		x := s.med("sim_speedup." + name)
		b.setDerived("run.wall_speedup."+name, w, "x")
		b.set("specrt.sim_speedup."+name, x, "x")
		wallX = append(wallX, w)
		simX = append(simX, x)
		steps += b.counts["interp.steps."+name]
		useful += b.counts["specrt.useful_steps."+name]
	}
	nsPerStep := seq / float64(steps)
	b.set("interp.steps", float64(steps), "count")
	b.setDerived("interp.seq_ns_per_step", nsPerStep, "ns")
	b.setDerived("run.wall_speedup_geomean", geomean(wallX), "x")
	b.set("specrt.sim_speedup_geomean", geomean(simX), "x")
	busy := s.sumMed("busy", ps)
	b.set("specrt.region_ms", s.sumMed("region", ps)/1e6, "ms")
	b.setDerived("specrt.serial_ms", s.sumMed("serial", ps)/1e6, "ms")
	b.set("specrt.worker_busy_ms", busy/1e6, "ms")
	b.setDerived("specrt.worker_ns_per_step", busy/float64(useful), "ns")
	b.setDerived("specrt.step_tax_x", busy/float64(useful)/nsPerStep, "x")
	b.set("specrt.privcheck_ms", s.sumMed("privcheck", ps)/1e6, "ms")
	b.set("specrt.spawn_ms", s.sumMed("spawn", ps)/1e6, "ms")
	b.set("specrt.checkpoint_ms", s.sumMed("checkpoint", ps)/1e6, "ms")
	b.set("specrt.join_ms", s.sumMed("join", ps)/1e6, "ms")
	for _, ph := range runPhases {
		b.set("phase."+ph+"_ms", s.sumMed("phase."+ph, ps)/1e6, "ms")
	}
	for _, c := range []string{"priv_checks", "priv_bytes", "sep_checks", "predictions",
		"checkpoints", "useful_steps", "misspecs", "warm_spawns"} {
		var t int64
		for _, pr := range ps {
			t += b.counts["specrt."+c+"."+pr.p.Name]
		}
		b.set("specrt."+c, float64(t), "count")
	}
	for _, c := range calibrations {
		ns, units := sum(s["calib."+c.name+".ns"]), sum(s["calib."+c.name+".units"])
		measured := 0.0
		if units > 0 {
			measured = ns / units / nsPerStep
		}
		b.setDerived("calib."+c.name+"_steps", measured, "steps")
		b.setDerived("calib."+c.name+"_model_x", measured/float64(c.model), "x")
	}
}

// ------------------------------------------------------------------ serve

// serveRoundJobs is the number of timed jobs in one serve round: 100 of
// each program, in a seeded order.
const serveRoundJobs = 500

// jobSample is one served job as the client saw it, plus the service's
// own view of where its time went.
type jobSample struct {
	prog     string
	clientNS int64
	submitNS int64
	view     service.JobView
	spawns   int64 // worker spawns (traced rounds only)
}

// serveRound starts a fresh service with one runner and nproc workers per
// invocation, warms it with one job per program (the round's set-up), then
// lets two closed-loop clients, one tenant each, serve serveRoundJobs jobs
// from a seeded sequence. It returns the set-up time, the timed window's
// wall time and the per-job samples.
func (b *bench) serveRound(ps []*program, rec *recorder) (setup, wall time.Duration, jobs []jobSample, err error) {
	round := rec.open("serve.round", "", 0)
	defer rec.close(round)
	t0 := time.Now()
	svc := service.New(service.Config{Concurrency: 1, Workers: b.nproc})
	defer svc.Drain()
	byName := map[string]*program{}
	for _, pr := range ps {
		byName[pr.p.Name] = pr
		if _, err := b.serveOne(svc, pr, "warmup", rec, round); err != nil {
			return 0, 0, nil, err
		}
	}
	setup = time.Since(t0)

	seq := make([]string, 0, serveRoundJobs)
	for i := 0; i < serveRoundJobs; i++ {
		seq = append(seq, ps[i%len(ps)].p.Name)
	}
	b.rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })

	const clients = 2
	var mu sync.Mutex
	next := 0
	results := make([][]jobSample, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	quiesce()
	t0 = time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("client%d", c)
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(seq) {
					return
				}
				js, err := b.serveOne(svc, byName[seq[i]], tenant, rec, round)
				if err != nil {
					errs[c] = err
					return
				}
				results[c] = append(results[c], js)
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(t0)
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			return 0, 0, nil, errs[c]
		}
		jobs = append(jobs, results[c]...)
	}
	return setup, wall, jobs, nil
}

// serveOne submits one job, waits for it, and checks its output. The
// client goroutines call it concurrently.
func (b *bench) serveOne(svc *service.Service, pr *program, tenant string, rec *recorder, parent int64) (jobSample, error) {
	name := pr.p.Name
	var base int64
	if rec != nil {
		base = rec.now()
	}
	t0 := time.Now()
	id := rec.open("service.submit", tenant, parent)
	job, err := svc.Submit(tenant, name, pr.class)
	rec.close(id)
	submit := time.Since(t0)
	if err != nil {
		err = fmt.Errorf("%s: submit refused: %w", name, err)
		b.op(err)
		b.mu.Lock()
		b.rejected++
		b.mu.Unlock()
		return jobSample{}, err
	}
	wait := rec.open("service.wait", job.ID, parent)
	<-job.Done()
	client := time.Since(t0)
	rec.close(wait)
	v := svc.View(job)
	if v.State != service.StateDone {
		err = fmt.Errorf("%s: job %s %s: %s", name, job.ID, v.State, v.Error)
	} else {
		err = checkResult(pr.p, pr.ref, v.Ret, v.Output)
	}
	b.op(err)
	if err != nil {
		return jobSample{}, err
	}
	js := jobSample{prog: name, clientNS: int64(client), submitNS: int64(submit), view: v}
	if rec != nil {
		evs, _ := svc.Trace(job.ID)
		rec.addEvents(job.ID, base, evs)
		for _, ev := range evs {
			if ev.Kind == obs.KSpawn {
				js.spawns += ev.B
			}
		}
	}
	if v.Misspecs != 0 {
		b.mismatch(fmt.Sprintf("count service.misspecs: job %s misspeculated %d times; the clean workloads must not misspeculate",
			job.ID, v.Misspecs))
	}
	return js, nil
}

// serveLayers reports the serve stage's per-layer metrics from the jobs of
// traced rounds whose timed windows sum to wall.
func (b *bench) serveLayers(ps []*program, jobs []jobSample, wall time.Duration) {
	var client, submit, queue, exec, notify []float64
	perProg := samples{}
	phase := samples{}
	var warm, spawns, reused, dropped int64
	for _, j := range jobs {
		v := j.view
		client = append(client, float64(j.clientNS))
		submit = append(submit, float64(j.submitNS))
		queue = append(queue, float64(v.QueueNS))
		exec = append(exec, float64(v.WallNS))
		notify = append(notify, float64(j.clientNS-v.QueueNS-v.WallNS))
		perProg.add(j.prog, float64(v.WallNS))
		for _, ph := range runPhases {
			phase.add(ph, float64(v.PhaseNS[ph]))
		}
		warm += v.WarmSpawns
		spawns += j.spawns
		if j.spawns > 0 && v.WarmSpawns == j.spawns {
			reused++
		}
		dropped += v.TraceDropped
	}
	n := float64(len(jobs))
	b.set("service.jobs", n, "count")
	b.set("service.jobs_per_s", n/wall.Seconds(), "1/s")
	b.set("service.client_p50_ms", median(client)/1e6, "ms")
	b.set("service.client_p99_ms", percentile(client, 0.99)/1e6, "ms")
	b.set("service.submit_us", median(submit)/1e3, "us")
	b.set("service.queue_us_p50", median(queue)/1e3, "us")
	b.set("service.queue_us_p99", percentile(queue, 0.99)/1e3, "us")
	b.set("service.exec_us_p50", median(exec)/1e3, "us")
	b.set("service.exec_us_p99", percentile(exec, 0.99)/1e3, "us")
	for _, pr := range ps {
		b.set("service.exec_us_p50."+pr.p.Name, perProg.med(pr.p.Name)/1e3, "us")
	}
	b.setDerived("service.notify_us", median(notify)/1e3, "us")
	for _, ph := range runPhases {
		b.set("service.phase."+ph+"_us", mean(phase[ph])/1e3, "us")
	}
	b.setDerived("service.pool_reuse_frac", float64(reused)/n, "frac")
	b.setDerived("service.warm_spawn_frac", float64(warm)/float64(spawns), "frac")
	b.set("service.rejected", float64(b.rejected), "count")
	b.set("service.trace_dropped", float64(dropped), "count")
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}
