package obs

// Job lifecycle phases. The region service decomposes a job's wall time the
// way the paper's cost model decomposes speculation overhead: privatization
// (spawn), execution (run), validation, merge, commit, and recovery — plus
// the service-side queue wait the runtime itself cannot see. Each phase is
// derived from the kinds of events the runtime already emits, so the
// breakdown needs no second instrumentation layer.

const (
	// PhaseQueued is the time between job submission and a runner picking
	// the job up (KJobPhase events with Cause "queued").
	PhaseQueued = "queued"
	// PhaseSpawn covers worker privatization: address-space clone or warm
	// reclone plus interpreter setup (KSpawn fleet spans).
	PhaseSpawn = "spawn"
	// PhaseRun covers speculative worker execution (KWorkerJoin busy spans).
	PhaseRun = "run"
	// PhaseValidate covers cross-interval privacy validation passes
	// (KValidate).
	PhaseValidate = "validate"
	// PhaseMerge covers worker state merges into checkpoints (KContribute).
	PhaseMerge = "merge"
	// PhaseCommit covers checkpoint installs and deferred-output commits
	// (KInstall, KCommit).
	PhaseCommit = "commit"
	// PhaseRecovery covers sequential re-execution after misspeculation and
	// whole-invocation sequential fallback (KRecovery, KSeqFallback).
	PhaseRecovery = "recovery"
)

// PhaseNames lists every job lifecycle phase in presentation order.
var PhaseNames = []string{
	PhaseQueued, PhaseSpawn, PhaseRun,
	PhaseValidate, PhaseMerge, PhaseCommit, PhaseRecovery,
}

// PhaseOf maps an event to the lifecycle phase it contributes to, or ""
// when the event is outside the phase taxonomy (COW faults, TLB flushes,
// marks, and other micro-events remain visible in the raw trace but do not
// enter the phase breakdown).
func PhaseOf(ev Event) string {
	switch ev.Kind {
	case KJobPhase:
		return ev.Cause
	case KSpawn:
		return PhaseSpawn
	case KWorkerJoin:
		return PhaseRun
	case KValidate:
		return PhaseValidate
	case KContribute:
		return PhaseMerge
	case KInstall, KCommit:
		return PhaseCommit
	case KRecovery, KSeqFallback:
		return PhaseRecovery
	}
	return ""
}

// PhaseSpan aggregates every event of one phase within a job trace.
type PhaseSpan struct {
	// Phase is the lifecycle phase name.
	Phase string `json:"phase"`
	// Count is the number of contributing events.
	Count int64 `json:"count"`
	// NS is the summed duration of the contributing spans in nanoseconds.
	NS int64 `json:"ns"`
	// FirstNS is the earliest contributing event's start time.
	FirstNS int64 `json:"first_ns"`
	// LastNS is the latest contributing event's end time.
	LastNS int64 `json:"last_ns"`
}

// SummarizePhases folds a job's event stream into its per-phase breakdown,
// in PhaseNames order, omitting phases no event contributed to.
func SummarizePhases(events []Event) []PhaseSpan {
	byPhase := map[string]*PhaseSpan{}
	for _, ev := range events {
		ph := PhaseOf(ev)
		if ph == "" {
			continue
		}
		ps := byPhase[ph]
		if ps == nil {
			ps = &PhaseSpan{Phase: ph, FirstNS: ev.TimeNS}
			byPhase[ph] = ps
		}
		ps.Count++
		ps.NS += ev.DurNS
		if ev.TimeNS < ps.FirstNS {
			ps.FirstNS = ev.TimeNS
		}
		if end := ev.TimeNS + ev.DurNS; end > ps.LastNS {
			ps.LastNS = end
		}
	}
	out := make([]PhaseSpan, 0, len(byPhase))
	for _, name := range PhaseNames {
		if ps, ok := byPhase[name]; ok {
			out = append(out, *ps)
		}
	}
	// Phases outside the canonical list (unexpected KJobPhase causes)
	// still surface, after the known ones.
	known := map[string]bool{}
	for _, name := range PhaseNames {
		known[name] = true
	}
	for _, ev := range events {
		if ph := PhaseOf(ev); ph != "" && !known[ph] {
			known[ph] = true
			out = append(out, *byPhase[ph])
		}
	}
	return out
}

// PhaseTotals reduces a breakdown to a phase→nanoseconds map, the form
// JobView carries.
func PhaseTotals(spans []PhaseSpan) map[string]int64 {
	if len(spans) == 0 {
		return nil
	}
	out := make(map[string]int64, len(spans))
	for _, ps := range spans {
		out[ps.Phase] = ps.NS
	}
	return out
}
