package obs

import (
	"fmt"
	"sort"
	"strings"
)

// InvocationMetrics is the per-invocation metrics snapshot: every
// speculation-lifecycle count for one parallel-region invocation, folded
// from the event stream. Events outside any invocation (Invocation < 0)
// aggregate under invocation -1.
type InvocationMetrics struct {
	// Invocation is the region invocation sequence number (-1 = outside).
	Invocation int64
	// Spans counts speculative spans attempted.
	Spans int64
	// Workers counts worker spawns.
	Workers int64
	// Checkpoints counts checkpoint objects constructed.
	Checkpoints int64
	// Contributions counts worker merges into checkpoints.
	Contributions int64
	// Validations counts cross-interval validation passes.
	Validations int64
	// Misspecs counts detected misspeculations.
	Misspecs int64
	// Recoveries counts sequential recovery episodes.
	Recoveries int64
	// Fallbacks counts invocations abandoned to sequential execution.
	Fallbacks int64
	// InstalledBytes totals checkpoint bytes installed into the master.
	InstalledBytes int64
	// CommittedIO totals deferred output records committed.
	CommittedIO int64
	// COWCopies counts copy-on-write page duplications.
	COWCopies int64
	// TLBFlushes counts software-TLB invalidations.
	TLBFlushes int64
	// ProtFaults counts page-protection faults.
	ProtFaults int64
	// WallNS is the invocation's wall-clock duration (from its
	// region-invoke event), when one was recorded.
	WallNS int64
}

// Summarize folds an event stream into per-invocation metrics, ordered by
// invocation number.
func Summarize(events []Event) []InvocationMetrics {
	byInv := map[int64]*InvocationMetrics{}
	get := func(inv int64) *InvocationMetrics {
		if inv < 0 {
			inv = -1
		}
		m := byInv[inv]
		if m == nil {
			m = &InvocationMetrics{Invocation: inv}
			byInv[inv] = m
		}
		return m
	}
	for _, ev := range events {
		m := get(ev.Invocation)
		switch ev.Kind {
		case KRegionInvoke:
			m.WallNS += ev.DurNS
		case KSpanStart:
			m.Spans++
		case KWorkerSpawn:
			m.Workers++
		case KCheckpoint:
			m.Checkpoints++
		case KContribute:
			m.Contributions++
		case KValidate:
			m.Validations++
		case KMisspec:
			m.Misspecs++
		case KRecovery:
			m.Recoveries++
		case KSeqFallback:
			m.Fallbacks++
		case KInstall:
			m.InstalledBytes += ev.A
		case KCommit:
			m.CommittedIO += ev.A
		case KCOWCopy:
			m.COWCopies++
		case KTLBFlush:
			m.TLBFlushes++
		case KProtFault:
			m.ProtFaults++
		}
	}
	out := make([]InvocationMetrics, 0, len(byInv))
	for _, m := range byInv {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Invocation < out[j].Invocation })
	return out
}

// CountByKind tallies the event stream per kind.
func CountByKind(events []Event) map[Kind]int64 {
	counts := map[Kind]int64{}
	for _, ev := range events {
		counts[ev.Kind]++
	}
	return counts
}

// FormatSummary renders the event stream as two aligned tables: totals per
// event kind, then the per-invocation metrics snapshot.
func FormatSummary(events []Event) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("Speculation events (%d recorded)\n\n", len(events)))

	counts := CountByKind(events)
	kinds := make([]Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	rows := make([][]string, 0, len(kinds))
	for _, k := range kinds {
		rows = append(rows, []string{k.String(), fmt.Sprintf("%d", counts[k])})
	}
	sb.WriteString(alignTable([]string{"event", "count"}, rows))

	ms := Summarize(events)
	if len(ms) == 0 {
		return sb.String()
	}
	sb.WriteString("\nPer-invocation metrics\n\n")
	rows = rows[:0]
	for _, m := range ms {
		inv := fmt.Sprintf("%d", m.Invocation)
		if m.Invocation < 0 {
			inv = "-"
		}
		rows = append(rows, []string{
			inv,
			fmt.Sprintf("%d", m.Spans),
			fmt.Sprintf("%d", m.Workers),
			fmt.Sprintf("%d", m.Checkpoints),
			fmt.Sprintf("%d", m.Misspecs),
			fmt.Sprintf("%d", m.Recoveries),
			fmt.Sprintf("%d", m.Fallbacks),
			fmt.Sprintf("%d", m.InstalledBytes),
			fmt.Sprintf("%d", m.CommittedIO),
			fmt.Sprintf("%d", m.COWCopies),
			fmt.Sprintf("%.3f", float64(m.WallNS)/1e6),
		})
	}
	sb.WriteString(alignTable([]string{
		"inv", "spans", "spawns", "ckpts", "misspec", "recover",
		"fallback", "inst B", "io", "cow", "wall ms"}, rows))
	return sb.String()
}

// alignTable renders rows with aligned columns (the same layout the bench
// package prints, duplicated here to keep obs dependency-free).
func alignTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(header)
	for i := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", widths[i]))
	}
	sb.WriteString("\n")
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}
