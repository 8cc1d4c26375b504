// Package specrt is Privateer's runtime support system (section 5 of the
// paper). It manages the logical heaps and validates their speculative
// separation, validates speculative privacy through shadow-memory metadata
// (Table 2), coordinates periodic checkpoints, recovers from
// misspeculation, merges reductions, and commits deferred output — all
// under DOALL parallel execution with worker "processes" realized as
// goroutines owning copy-on-write address-space clones.
//
// # Lifecycle
//
// RT.Run interprets the transformed module on the master interpreter; each
// parallel-region call becomes RT.invoke, which executes the region as a
// sequence of speculative spans (spanState). A span spawns workers over
// COW clones of the master address space, partitions its iterations into
// checkpoint intervals of k iterations, and merges worker state into one
// checkpoint object per interval. Validation has two phases: the fast
// phase (per-access Table 2 shadow transitions inside each worker) and the
// checkpoint phase (the merge in checkpoint.addWorkerState plus the
// cross-interval chain validation in crossValidateAddr). Once every worker has
// joined, the master validates the chain, installs its valid prefix into
// the master space and commits its deferred output; a misspeculation
// squashes in-flight intervals and re-executes from the last valid
// checkpoint boundary sequentially. This join — spawn, the slowest worker,
// then a serial merge on the master — is what sim.go's cost model charges.
// See ARCHITECTURE.md at the repository root for the end-to-end
// walk-through.
//
// # Invariants
//
// Shadow metadata: every private-heap byte has a shadow byte holding
// MetaLiveIn (untouched since region entry), MetaOldWrite (written before
// the last checkpoint), MetaReadLiveIn (its live-in value was read —
// validation deferred to the checkpoint), or a MetaTSBase+n timestamp
// (written at iteration n after the last checkpoint). A byte read as
// live-in must never have been written by an earlier iteration — enforced
// within an interval by the merge, across intervals by chain validation.
//
// Reduction folds are deterministic: worker contributions are cumulative
// snapshots, folded exactly once per span, from the last valid checkpoint,
// in ascending worker-id order — so floating-point reductions are
// bit-identical run to run regardless of scheduling.
//
// Checkpoints are self-contained: each records only the bytes written in
// its own interval, so the install applies a chain interval by interval
// (installOwnDataInto) and folds reductions once at the end.
//
// Committed program output is append-only and ordered: deferred records
// commit per interval in interval order, each interval's records in
// iteration order, under RT.outMu (see the locking discipline note in
// specrt.go).
//
// # Metrics
//
// With Config.Metrics set, the runtime publishes by push at quiescent
// points only: at the exit of every region invocation and at the end of
// Run, it adds the Stats and master vm.Stats deltas since its last publish
// to registry counters and sets the occupancy and page-table gauges from
// the master. Worker spaces own their vm.Stats blocks; the span folds them
// into the master's at the join. Nothing in this package is process-global,
// so runtimes sharing a registry sum into its counters.
package specrt
