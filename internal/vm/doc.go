// Package vm simulates the virtual-memory substrate the Privateer runtime
// is built on: per-process page tables, copy-on-write page duplication, page
// protections, and logical heaps placed at fixed virtual addresses whose
// 3-bit heap tag occupies address bits 44-46.
//
// The paper implements this with POSIX shm_open/mmap and worker processes;
// here each worker owns an AddressSpace value backed by a five-level radix
// page table (see pagetable.go). The heap tag forms the top bits of the
// root index, so each logical heap is a contiguous range of root slots and
// heap-granular scans and resets are range operations. Cloning an
// AddressSpace is O(1) range-COW: both sides take fresh ownership epochs,
// which marks every existing subtree shared, and the first write through
// either side path-copies just the nodes on the way down — a worker's
// writes are isolated from its parent exactly as fork-style COW isolates
// processes, and "several calls to mmap" during recovery becomes copying
// page-table entries from a checkpoint. Per-subtree dirty summaries,
// maintained on the store path, let DirtyPages and DirtyHeapPages collect a
// space's touched pages in O(touched) rather than O(resident).
//
// # Concurrency
//
// An AddressSpace is not a concurrent data structure: each one has exactly
// one owner goroutine, and only that owner may call its methods. What makes
// concurrent speculation sound anyway is the range-COW invariant:
//
//	a radix node reachable from two or more address spaces (a stale
//	epoch) is never mutated — the first write through any referencing
//	space path-copies the shared nodes into privately owned ones first.
//
// Clone therefore only issues fresh epochs, and a parent and its clones can
// execute concurrently without locks: writes on either side split shared
// subtrees (and then copy pages) privately before mutating, so no goroutine
// ever observes another's mutation through shared structure. This is what
// lets internal/specrt run every worker of a span on its own goroutine
// against clones of one master space: the shared subtrees are frozen, and
// each worker's writes materialize private ones. TestConcurrentCloneIsolation
// pins this under the race detector.
package vm
