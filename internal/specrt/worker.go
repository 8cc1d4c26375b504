package specrt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/vm"
)

// spanState coordinates one parallel execution span: from a start iteration
// to completion or to the first misspeculation (Figure 5 of the paper).
type spanState struct {
	rt   *RT
	ri   *RegionInfo
	live []uint64
	// start and hi bound the span's iterations; k is the checkpoint period.
	start, hi, k int64
	// inv is the enclosing region invocation's sequence number.
	inv int64
	// redux is the registry snapshot the span works against: one consistent,
	// address-ordered view shared by worker init, checkpoint merges and
	// install, immune to concurrent registry changes.
	redux []reduxObj
	// proven is the span's snapshot of statically-privatized ranges: their
	// accesses carry no shadow marks, so each interval's final content is
	// captured wholesale from the worker that ran the interval's last
	// iteration and installed like data pages. provenRO is the snapshot of
	// proven read-only ranges, consumed by the SepAudit oracle.
	proven   []provenRange
	provenRO []provenRange
	// roProtSkip drops the worker-side write protection of the read-only
	// heap: the region statically cannot write it (see roProtSkippable).
	roProtSkip bool

	mu          sync.Mutex
	checkpoints []*checkpoint

	// misspecIter is the earliest misspeculated iteration (-1 = none);
	// guarded by flagMu for the atomic-min update.
	flagMu      sync.Mutex
	flagged     atomic.Bool
	misspecIter int64
}

// flag records a misspeculation at iteration i by worker wid, keeping the
// earliest. addr is the faulting address when the violation concerns a
// specific memory location (0 otherwise); it feeds per-site attribution.
func (sp *spanState) flag(i int64, wid int, cause, site string, addr uint64) {
	sp.flagMu.Lock()
	if sp.misspecIter < 0 || i < sp.misspecIter {
		sp.misspecIter = i
	}
	sp.flagMu.Unlock()
	sp.flagged.Store(true)
	atomic.AddInt64(&sp.rt.Stats.Misspecs, 1)
	sp.rt.noteMisspec(sp.ri.Outline.RegionFn.Name, cause, site, addr)
	sp.rt.Cfg.Trace.Instant(obs.Event{Kind: obs.KMisspec,
		Invocation: sp.inv, Worker: wid, Iter: i, Cause: cause, Site: site,
		A: int64(addr)})
}

// misspecInterval returns the interval id of the earliest misspeculation,
// or -1.
func (sp *spanState) misspecInterval() int64 {
	sp.flagMu.Lock()
	defer sp.flagMu.Unlock()
	if sp.misspecIter < 0 {
		return -1
	}
	return (sp.misspecIter - sp.start) / sp.k
}

// checkpointFor returns the checkpoint object for interval c, creating the
// chain lazily. The first worker to reach an interval allocates its object.
func (sp *spanState) checkpointFor(c int64) *checkpoint {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for int64(len(sp.checkpoints)) <= c {
		id := int64(len(sp.checkpoints))
		var prev *checkpoint
		if id > 0 {
			prev = sp.checkpoints[id-1]
		}
		base := sp.start + id*sp.k
		limit := base + sp.k
		if limit > sp.hi {
			limit = sp.hi
		}
		sp.checkpoints = append(sp.checkpoints, newCheckpoint(id, base, limit, prev))
		atomic.AddInt64(&sp.rt.Stats.Checkpoints, 1)
		sp.rt.Cfg.Trace.Instant(obs.Event{Kind: obs.KCheckpoint,
			Invocation: sp.inv, Worker: -1, Iter: id, A: base, B: limit})
	}
	return sp.checkpoints[c]
}

// validate runs the second-phase cross-interval chain validation over the
// checkpoints up to last, with tracing. The scan is sharded by shadow-page
// range (see validateShards); the verdict is shard-count independent. It
// returns the first violating interval id (-1 = clean) and the faulting
// private-heap address (0 when clean).
func (sp *spanState) validate(last *checkpoint) (int64, uint64) {
	tr := sp.rt.Cfg.Trace
	t0 := tr.Now()
	c, addr := last.crossValidateShardedAddr(validateShards())
	if tr.On() {
		tr.Emit(obs.Event{Kind: obs.KValidate, TimeNS: t0, DurNS: tr.Now() - t0,
			Invocation: sp.inv, Worker: -1, Iter: last.id, A: c})
	}
	return c, addr
}

// run executes the span. It returns the last fully valid checkpoint (nil if
// none completed), the earliest misspeculated iteration (-1 for a clean
// finish), and any hard error.
func (sp *spanState) run() (*checkpoint, int64, error) {
	rt := sp.rt
	tr := rt.Cfg.Trace
	workers := rt.Cfg.Workers
	if total := sp.hi - sp.start; int64(workers) > total {
		workers = int(total)
	}
	nIntervals := (sp.hi - sp.start + sp.k - 1) / sp.k
	tr.Instant(obs.Event{Kind: obs.KPhase,
		Invocation: sp.inv, Worker: -1, Iter: -1, Cause: "fast"})
	spawnStart := time.Now()
	warm0 := atomic.LoadInt64(&rt.Stats.WarmSpawns)
	trSpawn := tr.Now()
	ws := make([]*worker, workers)
	for w := 0; w < workers; w++ {
		wk, err := newWorker(sp, w, workers)
		if err != nil {
			return nil, -1, err
		}
		ws[w] = wk
		tr.Instant(obs.Event{Kind: obs.KWorkerSpawn,
			Invocation: sp.inv, Worker: w, Iter: -1})
	}
	atomic.AddInt64(&rt.Stats.SpawnNS, int64(time.Since(spawnStart)))
	if tr.On() {
		// One fleet-level spawn span on the runtime lane, attributing the
		// whole privatization step and how much of it the warmed pool
		// satisfied; the per-worker instants above fall inside it.
		warm := atomic.LoadInt64(&rt.Stats.WarmSpawns) - warm0
		cause := "cold"
		switch {
		case workers > 0 && warm == int64(workers):
			cause = "warm"
		case warm > 0:
			cause = "mixed"
		}
		tr.Emit(obs.Event{Kind: obs.KSpawn, TimeNS: trSpawn, DurNS: tr.Now() - trSpawn,
			Invocation: sp.inv, Worker: -1, Iter: -1, A: warm, B: int64(workers), Cause: cause})
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t0 := tr.Now()
			errs[w] = ws[w].run()
			if tr.On() {
				tr.Emit(obs.Event{Kind: obs.KWorkerJoin, TimeNS: t0, DurNS: tr.Now() - t0,
					Invocation: sp.inv, Worker: w, Iter: -1})
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, -1, err
		}
	}

	// Simulated-time accounting: the span costs its spawn plus the slowest
	// worker, and consumes capacity on every worker for its whole duration.
	spawn := int64(workers) * SimSpawnPerWorker
	join := int64(workers) * SimJoinPerWorker
	var maxW int64
	sim := &rt.Sim
	for _, w := range ws {
		t := w.simTime()
		if t > maxW {
			maxW = t
		}
		atomic.AddInt64(&sim.UsefulSteps, w.it.Steps)
		atomic.AddInt64(&sim.PrivReadCost, w.simPrivRead)
		atomic.AddInt64(&sim.PrivWriteCost, w.simPrivWrite)
		atomic.AddInt64(&sim.CheckpointCost, w.simCheckpoint)
		atomic.AddInt64(&sim.OtherCheckCost, w.simOther)
	}
	spanTime := spawn + maxW + join
	atomic.AddInt64(&sim.RegionTime, spanTime)
	atomic.AddInt64(&sim.RegionCapacity, int64(workers)*spanTime)
	atomic.AddInt64(&sim.SpawnCost, spawn+join)

	// Warmed-space recycling: every checkpoint contribution copied state
	// out of the worker spaces (addWorkerState owns its pages and buffers;
	// nothing downstream retains a worker-space reference), so once the
	// fleet has joined the machinery can park in the pool for the next
	// span's spawns.
	if pool := rt.Cfg.Pool; pool != nil {
		prog := rt.master.Program()
		for _, w := range ws {
			pool.put(prog, &warmSlot{as: w.as, it: w.it})
		}
	}

	tr.Instant(obs.Event{Kind: obs.KPhase,
		Invocation: sp.inv, Worker: -1, Iter: -1, Cause: "validate"})
	return sp.finish(nIntervals)
}

// finish is the span's join: the span has fully quiesced, and the master
// now chain-validates every checkpoint on its critical path (install and
// commit follow in invoke). Validation time accrues to Stats.JoinNS.
func (sp *spanState) finish(nIntervals int64) (*checkpoint, int64, error) {
	rt := sp.rt
	tr := rt.Cfg.Trace
	joinStart := time.Now()
	defer func() {
		atomic.AddInt64(&rt.Stats.JoinNS, int64(time.Since(joinStart)))
	}()
	if !sp.flagged.Load() {
		last := sp.checkpointFor(nIntervals - 1)
		// Second-phase cross-interval privacy validation over the whole
		// chain (the span has quiesced, so every contribution is in).
		if c, addr := sp.validate(last); c >= 0 {
			atomic.AddInt64(&rt.Stats.Misspecs, 1)
			rt.noteMisspec(sp.ri.Outline.RegionFn.Name,
				"privacy violated (cross-interval)", "", addr)
			tr.Instant(obs.Event{Kind: obs.KMisspec, Invocation: sp.inv,
				Worker: -1, Iter: sp.checkpointFor(c).limit - 1,
				Cause: "privacy violated (cross-interval)", A: int64(addr)})
			lv, at := sp.resolveMisspec(c, sp.checkpointFor(c).limit-1)
			return lv, at, nil
		}
		return last, -1, nil
	}
	mi := sp.misspecInterval()
	sp.flagMu.Lock()
	iter := sp.misspecIter
	sp.flagMu.Unlock()
	// The valid prefix may itself hide a cross-interval violation; take
	// the earliest.
	if mi > 0 {
		if c, addr := sp.validate(sp.checkpointFor(mi - 1)); c >= 0 && c < mi {
			atomic.AddInt64(&rt.Stats.Misspecs, 1)
			rt.noteMisspec(sp.ri.Outline.RegionFn.Name,
				"privacy violated (cross-interval)", "", addr)
			tr.Instant(obs.Event{Kind: obs.KMisspec, Invocation: sp.inv,
				Worker: -1, Iter: sp.checkpointFor(c).limit - 1,
				Cause: "privacy violated (cross-interval)", A: int64(addr)})
			lv, at := sp.resolveMisspec(c, sp.checkpointFor(c).limit-1)
			return lv, at, nil
		}
	}
	lv, at := sp.resolveMisspec(mi, iter)
	return lv, at, nil
}

// resolveMisspec returns the last valid checkpoint before interval mi and
// the iteration recovery must re-execute through.
func (sp *spanState) resolveMisspec(mi, iter int64) (*checkpoint, int64) {
	var lastValid *checkpoint
	if mi > 0 {
		lastValid = sp.checkpointFor(mi - 1)
	}
	return lastValid, iter
}

// worker is one speculative worker process.
type worker struct {
	sp      *spanState
	id      int
	stride  int
	as      *vm.AddressSpace
	it      *interp.Interp
	curIter int64
	curTS   byte
	io      []ioRec

	shortBaseline int

	// SepAudit oracle state: the byte addresses of statically-privatized
	// ranges the current iteration has written so far (auditIter tells
	// which iteration the set reflects; it resets lazily on change).
	auditWr   map[uint64]bool
	auditIter int64

	// Simulated-time accounting (see sim.go).
	simPrivRead   int64
	simPrivWrite  int64
	simCheckpoint int64
	simOther      int64
}

// simTime returns the worker's total simulated busy time.
func (w *worker) simTime() int64 {
	return w.it.Steps + w.simPrivRead + w.simPrivWrite + w.simCheckpoint + w.simOther
}

func newWorker(sp *spanState, id, stride int) (*worker, error) {
	rt := sp.rt
	w := &worker{sp: sp, id: id, stride: stride}
	// Workers share the master's Stats so fork-style page-copy counts
	// aggregate across the fleet (Figure 8 accounting). A warmed spawn
	// re-clones a pooled address space over this master in place and
	// recycles its interpreter — same semantics as the cold path below,
	// minus the per-spawn allocation of TLB arrays, heap states and maps.
	if pool := rt.Cfg.Pool; pool != nil {
		if slot := pool.get(rt.master.Program()); slot != nil {
			slot.as.RecloneFrom(rt.master.AS)
			slot.it.Recycle(slot.as)
			w.as, w.it = slot.as, slot.it
			atomic.AddInt64(&rt.Stats.WarmSpawns, 1)
		}
	}
	if w.as == nil {
		w.as = rt.master.AS.CloneSharingStats()
		// Sharing the master's decoded program means each region function
		// is pre-decoded once per run, not once per worker per span.
		w.it = interp.NewShared(rt.master.Program(), w.as)
	}
	w.it.SetTrace(rt.Cfg.Trace, id, sp.inv)
	// Workers see the read-only heap as truly read-only, and the
	// reduction heap starts at the operator's identity. A failure here
	// means the worker would speculate from a corrupt base state — that is
	// a hard error, not something to discover later as a bogus result.
	// When the prover showed the region cannot write that heap at all,
	// the protection is dead weight and is skipped (audit mode keeps it).
	if !sp.roProtSkip {
		w.as.SetProt(ir.HeapReadOnly, vm.ProtRead)
	}
	for _, ro := range sp.redux {
		ident, err := Identity(ro.op, ro.elemSize)
		if err != nil {
			return nil, fmt.Errorf("specrt: worker %d: redux %#x identity: %w", id, ro.addr, err)
		}
		for off := int64(0); off < ro.size; off += ro.elemSize {
			if err := w.as.WriteBytes(ro.addr+uint64(off), ident); err != nil {
				return nil, fmt.Errorf("specrt: worker %d: redux %#x init: %w", id, ro.addr, err)
			}
		}
	}
	w.it.AdoptLayout(rt.master.GlobalLayout())
	w.it.Prof = rt.Cfg.OpProf
	if rt.Cfg.StepLimit > 0 {
		w.it.StepLimit = rt.Cfg.StepLimit
	}
	w.shortBaseline = w.as.LiveObjects(ir.HeapShortLived)
	w.installHooks()
	return w, nil
}

func (w *worker) installHooks() {
	rt := w.sp.rt
	h := &w.it.Hooks
	h.PrivateRead = func(in *ir.Instr, addr uint64, size int64) error {
		t0 := time.Now()
		err := w.privAccess(addr, size, false)
		w.simPrivRead += size * SimPrivacyPerByte
		atomic.AddInt64(&rt.Stats.PrivReadNS, int64(time.Since(t0)))
		atomic.AddInt64(&rt.Stats.PrivReadBytes, size)
		atomic.AddInt64(&rt.Stats.PrivReadChecks, 1)
		return err
	}
	h.PrivateWrite = func(in *ir.Instr, addr uint64, size int64) error {
		t0 := time.Now()
		err := w.privAccess(addr, size, true)
		w.simPrivWrite += size * SimPrivacyPerByte
		atomic.AddInt64(&rt.Stats.PrivWriteNS, int64(time.Since(t0)))
		atomic.AddInt64(&rt.Stats.PrivWriteBytes, size)
		atomic.AddInt64(&rt.Stats.PrivWriteChecks, 1)
		return err
	}
	h.PrivateReadSpan = func(in *ir.Instr, addr uint64, count, stride, size int64) error {
		t0 := time.Now()
		err := w.privSpan(addr, count, stride, size, false)
		bytes := count * size
		if bytes < 0 {
			bytes = 0
		}
		w.simPrivRead += bytes * SimPrivacyPerByte
		atomic.AddInt64(&rt.Stats.PrivReadNS, int64(time.Since(t0)))
		atomic.AddInt64(&rt.Stats.PrivReadBytes, bytes)
		atomic.AddInt64(&rt.Stats.PrivReadChecks, 1)
		return err
	}
	h.PrivateWriteSpan = func(in *ir.Instr, addr uint64, count, stride, size int64) error {
		t0 := time.Now()
		err := w.privSpan(addr, count, stride, size, true)
		bytes := count * size
		if bytes < 0 {
			bytes = 0
		}
		w.simPrivWrite += bytes * SimPrivacyPerByte
		atomic.AddInt64(&rt.Stats.PrivWriteNS, int64(time.Since(t0)))
		atomic.AddInt64(&rt.Stats.PrivWriteBytes, bytes)
		atomic.AddInt64(&rt.Stats.PrivWriteChecks, 1)
		return err
	}
	h.CheckHeap = func(in *ir.Instr, addr uint64) error {
		atomic.AddInt64(&rt.Stats.SeparationChecks, 1)
		w.simOther += SimSeparationCheck
		if addr != 0 && ir.HeapOf(addr) != in.Heap {
			return &interp.MisspecError{Instr: in, Addr: addr, Reason: "separation violated"}
		}
		return nil
	}
	h.Predict = func(in *ir.Instr, actual, expected uint64) error {
		atomic.AddInt64(&rt.Stats.Predictions, 1)
		w.simOther += SimPredict
		if actual != expected {
			return &interp.MisspecError{Instr: in, Reason: "value prediction failed"}
		}
		return nil
	}
	h.Misspec = func(in *ir.Instr) error {
		return &interp.MisspecError{Instr: in, Reason: "control speculation violated"}
	}
	h.ReduxWrite = func(in *ir.Instr, addr uint64, size int64) error {
		// Separation into the redux heap is validated by check_heap; the
		// marker feeds accounting only.
		return nil
	}
	h.OnPrint = func(in *ir.Instr, text string) bool {
		w.io = append(w.io, ioRec{iter: w.curIter, text: text})
		atomic.AddInt64(&rt.Stats.DeferredIO, 1)
		return true
	}
	if rt.Cfg.SepAudit && (len(w.sp.proven) > 0 || len(w.sp.provenRO) > 0) {
		w.installAuditHooks()
	}
}

// overlapRange intersects [addr, addr+size) with one proven range,
// returning the overlapping byte range (empty when disjoint).
func overlapRange(pr provenRange, addr uint64, size int64) (uint64, uint64) {
	lo, hi := addr, addr+uint64(size)
	if pr.addr > lo {
		lo = pr.addr
	}
	if end := pr.addr + uint64(pr.size); end < hi {
		hi = end
	}
	return lo, hi
}

// installAuditHooks arms the SepAudit oracle on this worker: every load
// and store is checked against the span's statically-proven ranges. A
// store into a proven read-only object, or a read of a statically-
// privatized byte the current iteration has not (re)written, contradicts
// the static claim that justified dropping its dynamic machinery — the
// oracle counts it loudly instead of letting the corruption stay silent.
// A sound prover never trips either condition: proofs guarantee no region
// write targets a proven read-only object and every read of a privatized
// object is dominated by same-iteration covering writes.
func (w *worker) installAuditHooks() {
	rt := w.sp.rt
	h := &w.it.Hooks
	w.auditWr = map[uint64]bool{}
	w.auditIter = -1 << 62
	syncIter := func() {
		if w.auditIter != w.curIter {
			w.auditIter = w.curIter
			for b := range w.auditWr {
				delete(w.auditWr, b)
			}
		}
	}
	h.OnStore = func(fr *interp.Frame, in *ir.Instr, addr uint64, size int64) {
		syncIter()
		for _, pr := range w.sp.proven {
			lo, hi := overlapRange(pr, addr, size)
			for b := lo; b < hi; b++ {
				w.auditWr[b] = true
			}
		}
		for _, pr := range w.sp.provenRO {
			if lo, hi := overlapRange(pr, addr, size); lo < hi {
				rt.noteSepViolation(fmt.Sprintf(
					"iter %d: store %s writes proven read-only range [%#x,%#x)",
					w.curIter, in, lo, hi))
			}
		}
	}
	h.OnLoad = func(fr *interp.Frame, in *ir.Instr, addr uint64, size int64) {
		syncIter()
		for _, pr := range w.sp.proven {
			lo, hi := overlapRange(pr, addr, size)
			for b := lo; b < hi; b++ {
				if !w.auditWr[b] {
					rt.noteSepViolation(fmt.Sprintf(
						"iter %d: load %s reads statically-privatized byte %#x before the iteration rewrote it",
						w.curIter, in, b))
					break
				}
			}
		}
	}
}

// privAccess applies Table 2 transitions to every byte of the access. An
// access that straddles a page boundary marks metadata on every page it
// touches; privRange splits the run per page.
func (w *worker) privAccess(addr uint64, size int64, isWrite bool) error {
	return w.privRange(addr, size, isWrite)
}

// privSpan applies Table 2 transitions for a span op: count elements of
// size bytes each, consecutive elements stride bytes apart. A dense span
// (stride == size) collapses to one contiguous range; count <= 0 is a
// no-op, which lets promoted checks use a dynamically computed trip count
// without proving the loop is entered.
func (w *worker) privSpan(addr uint64, count, stride, size int64, isWrite bool) error {
	if count <= 0 || size <= 0 {
		return nil
	}
	if stride == size {
		return w.privRange(addr, count*size, isWrite)
	}
	for k := int64(0); k < count; k++ {
		if err := w.privRange(addr+uint64(k)*uint64(stride), size, isWrite); err != nil {
			return err
		}
	}
	return nil
}

// privRange marks [addr, addr+n) with one page-table resolution per shadow
// page instead of one per byte: the page is pinned writable once and the
// transitions run over its backing slice directly.
func (w *worker) privRange(addr uint64, n int64, isWrite bool) error {
	for n > 0 {
		sh := ir.ShadowAddr(addr)
		off := int64(sh & (vm.PageSize - 1))
		chunk := int64(vm.PageSize) - off
		if chunk > n {
			chunk = n
		}
		data, err := w.as.WritablePage(sh)
		if err != nil {
			return err
		}
		seg := data[off : off+chunk]
		for i := range seg {
			m := seg[i]
			var newMeta byte
			var miss bool
			if isWrite {
				newMeta, miss = WriteTransition(m, w.curTS)
			} else {
				newMeta, miss = ReadTransition(m, w.curTS)
			}
			if miss {
				return &interp.MisspecError{Reason: "privacy violated (fast phase)", Addr: addr + uint64(i)}
			}
			if newMeta != m {
				seg[i] = newMeta
			}
		}
		addr += uint64(chunk)
		n -= chunk
	}
	return nil
}

// resetShadow collapses the worker's timestamps to old-write after a
// checkpoint contribution. The dirty walk covers every shadow page (all of
// them are worker-created, hence dirty) without scanning the rest of the
// footprint; words holding no timestamp are skipped eight bytes at a time.
func (w *worker) resetShadow() {
	w.as.DirtyHeapPages(ir.HeapShadow, func(base uint64, data []byte) {
		for i := 0; i < len(data); i += 8 {
			if !wordHasTS(binary.LittleEndian.Uint64(data[i:])) {
				continue
			}
			for j := i; j < i+8; j++ {
				if data[j] >= MetaTSBase {
					data[j] = MetaOldWrite
				}
			}
		}
	})
}

// misspecCause classifies a squashing error for the trace: the violated
// property, the instruction that detected it, and the faulting address when
// the violation concerns one (0 otherwise).
func misspecCause(err error) (cause, site string, addr uint64) {
	var m *interp.MisspecError
	if errors.As(err, &m) {
		return m.Reason, m.Site(), m.Addr
	}
	var fault *vm.Fault
	if errors.As(err, &fault) {
		return "memory protection fault", fmt.Sprintf("%#x", fault.Addr), fault.Addr
	}
	return err.Error(), "", 0
}

// run executes the worker's share of the span: cyclically assigned
// iterations, a checkpoint contribution per interval, misspeculation checks
// after every iteration.
func (w *worker) run() error {
	sp := w.sp
	rt := sp.rt
	tr := rt.Cfg.Trace
	busyStart := time.Now()
	defer func() {
		atomic.AddInt64(&rt.Stats.WorkerBusyNS, int64(time.Since(busyStart)))
	}()
	callArgs := make([]uint64, 1+len(sp.live))
	copy(callArgs[1:], sp.live)

	nIntervals := (sp.hi - sp.start + sp.k - 1) / sp.k
	for c := int64(0); c < nIntervals; c++ {
		if sp.flagged.Load() {
			if mi := sp.misspecInterval(); mi >= 0 && c >= mi {
				return nil // squash: past the failed checkpoint
			}
		}
		base := sp.start + c*sp.k
		limit := base + sp.k
		if limit > sp.hi {
			limit = sp.hi
		}
		for i := base + int64(w.id); i < limit; i += int64(w.stride) {
			w.curIter = i
			w.curTS = TimestampFor(i, base)
			callArgs[0] = uint64(i)
			_, err := w.it.Call(sp.ri.Outline.IterFn, callArgs...)
			if err != nil {
				var fault *vm.Fault
				if interp.IsMisspec(err) || errors.As(err, &fault) {
					// Memory-protection faults during speculation (a store
					// into the read-only heap, say) are misspeculations:
					// the paper's workers take the same path on SIGSEGV.
					cause, site, faddr := misspecCause(err)
					if rt.Cfg.SepAudit && faddr != 0 {
						// The hooks fire only after a successful access, so a
						// store rejected by the read-only page protection is
						// audited here: faulting inside a proven range means
						// the static claim itself was wrong.
						for _, pr := range sp.provenRO {
							if faddr >= pr.addr && faddr < pr.addr+uint64(pr.size) {
								rt.noteSepViolation(fmt.Sprintf(
									"iter %d: %s at %#x inside proven read-only range [%#x,%#x)",
									i, cause, faddr, pr.addr, pr.addr+uint64(pr.size)))
								break
							}
						}
					}
					sp.flag(i, w.id, cause, site, faddr)
					return nil
				}
				return err
			}
			// Object-lifetime speculation: short-lived objects must die
			// by the end of their iteration.
			w.simOther += SimShortLivedCheck
			if w.as.LiveObjects(ir.HeapShortLived) != w.shortBaseline {
				sp.flag(i, w.id, "short-lived object escaped", "", 0)
				return nil
			}
			// Artificial misspeculation injection (Figure 9).
			if rt.inject(i) {
				sp.flag(i, w.id, "injected", "", 0)
				return nil
			}
			// Consult the global flag after each iteration.
			if sp.flagged.Load() {
				if mi := sp.misspecInterval(); mi >= 0 && c >= mi {
					return nil
				}
			}
		}
		// Contribute this interval's state to its checkpoint.
		cpStart := time.Now()
		trC := tr.Now()
		cp := sp.checkpointFor(c)
		// Under cyclic assignment the interval's last iteration (limit-1)
		// belongs to exactly one worker; only its view of the statically-
		// privatized ranges is the interval's sequential final content.
		var proven []provenRange
		if len(sp.proven) > 0 && int64(w.id) == (limit-1-base)%int64(w.stride) {
			proven = sp.proven
			for _, pr := range proven {
				atomic.AddInt64(&rt.Stats.ProvenRangeBytes, pr.size)
			}
		}
		ok, scanned, _ := cp.addWorkerState(w.id, w.as, sp.redux, proven, w.io, validateShards())
		w.simCheckpoint += scanned * SimCheckpointPerByte
		w.io = nil
		w.resetShadow()
		atomic.AddInt64(&rt.Stats.CheckpointNS, int64(time.Since(cpStart)))
		tr.Emit(obs.Event{Kind: obs.KContribute, TimeNS: trC, DurNS: tr.Now() - trC,
			Invocation: sp.inv, Worker: w.id, Iter: c, A: scanned})
		if !ok {
			sp.flag(base, w.id, "privacy violated (merge)", "",
				atomic.LoadUint64(&cp.missAddr))
			return nil
		}
	}
	return nil
}
