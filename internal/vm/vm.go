package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"privateer/internal/ir"
	"privateer/internal/obs"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Prot is a page-protection mode.
type Prot uint8

const (
	// ProtNone forbids all access.
	ProtNone Prot = iota
	// ProtRead allows loads only.
	ProtRead
	// ProtReadWrite allows loads and stores.
	ProtReadWrite
)

// String renders the protection in ls -l style ("rw-", "r--", "---").
func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "---"
	case ProtRead:
		return "r--"
	case ProtReadWrite:
		return "rw-"
	}
	return "???"
}

// Fault describes an invalid memory access.
type Fault struct {
	// Addr is the faulting virtual address.
	Addr uint64
	// Write distinguishes store faults from load faults.
	Write bool
	// Reason explains the fault.
	Reason string
}

// Error formats the fault as "<kind> fault at 0x<addr>: <reason>".
func (f *Fault) Error() string {
	kind := "load"
	if f.Write {
		kind = "store"
	}
	return fmt.Sprintf("memory fault: %s at %#x (%s heap): %s",
		kind, f.Addr, ir.HeapOf(f.Addr), f.Reason)
}

type page struct {
	data [PageSize]byte
}

type pageEntry struct {
	pg *page
	// cow marks the page as shared with another address space; the first
	// write duplicates it.
	cow bool
}

// allocBase is an immutable, shareable snapshot of allocator state: one node
// of a copy-on-write overlay chain. A clone (or a freeze before a clone)
// seals the mutable delta maps of a heapState into a new node, which both
// sides then read through without ever mutating — so post-clone allocator
// mutations cost O(1) in the number of live objects, not O(live) as a deep
// copy would.
type allocBase struct {
	// parent is the next-older snapshot; nil terminates the chain.
	parent *allocBase
	// free holds the free-list entries added at this level (newest at the
	// end, as the LIFO allocator appends them).
	free map[uint64][]uint64
	// used counts, per size class, how many entries this level had consumed
	// from the END of the parent chain's virtual free list at freeze time.
	used map[uint64]int
	// objects holds allocations made at this level; dead tombstones objects
	// of DEEPER levels freed at this level. Within one level objects wins
	// (a tombstoned address can be handed out again by a later Alloc).
	objects map[uint64]uint64
	dead    map[uint64]bool
	// depth is the chain length at this node, bounded by maxChainDepth via
	// amortized flattening.
	depth int
}

// maxChainDepth bounds overlay-chain walks; freezing past it flattens the
// state first (amortized across the mutations that grew the chain).
const maxChainDepth = 8

// entryFromEnd returns the (k+1)-th entry from the end of the chain's
// virtual free list for size class r, where the virtual list is the parent's
// list minus the entries this node had consumed, with this node's own frees
// stacked on top.
func (b *allocBase) entryFromEnd(r uint64, k int) (uint64, bool) {
	for b != nil {
		lst := b.free[r]
		if k < len(lst) {
			return lst[len(lst)-1-k], true
		}
		k += b.used[r] - len(lst)
		b = b.parent
	}
	return 0, false
}

// heapState is the allocator state of one logical heap: an optional
// immutable base chain plus private delta maps (allocated lazily, so a
// fresh post-clone state is a few words).
type heapState struct {
	// brk is the bump pointer (next unallocated address).
	brk uint64
	// base is the shared immutable snapshot chain; nil for a flat state.
	base *allocBase
	// free maps a rounded size class to the free list of addresses released
	// at this level (private, mutable).
	free map[uint64][]uint64
	// used counts per size class how many entries of base's virtual free
	// list this state has consumed (private, mutable).
	used map[uint64]int
	// objects tracks allocations made at this level; dead tombstones base
	// objects freed at this level.
	objects map[uint64]uint64
	dead    map[uint64]bool
	// liveCount is the number of live allocations across base and deltas.
	liveCount int
	// allocBytes totals bytes ever allocated from this heap.
	allocBytes uint64
}

func newHeapState(h ir.HeapKind) *heapState {
	return &heapState{
		// Skip the first page so address 0 (and small offsets) stay
		// unmapped: null-pointer dereferences must fault.
		brk: h.Base() + PageSize,
	}
}

// freeze seals this state's delta maps into a new immutable chain node, so
// a clone may share them. O(1): the maps move into the node unchanged and
// the state continues with empty deltas. A state with nothing new since the
// last freeze is reused as-is.
func (hs *heapState) freeze() {
	if hs.base != nil && len(hs.free) == 0 && len(hs.used) == 0 &&
		len(hs.objects) == 0 && len(hs.dead) == 0 {
		return
	}
	if hs.base != nil && hs.base.depth >= maxChainDepth {
		hs.flatten()
	}
	depth := 1
	if hs.base != nil {
		depth = hs.base.depth + 1
	}
	hs.base = &allocBase{parent: hs.base, free: hs.free, used: hs.used,
		objects: hs.objects, dead: hs.dead, depth: depth}
	hs.free, hs.used, hs.objects, hs.dead = nil, nil, nil, nil
}

// flatMaps materializes the fully resolved free and objects maps without
// mutating the state (oldest chain node first, each level's consumptions
// trimmed and frees appended; tombstones applied before same-level
// reallocations).
func (hs *heapState) flatMaps() (map[uint64][]uint64, map[uint64]uint64) {
	var chain []*allocBase
	for b := hs.base; b != nil; b = b.parent {
		chain = append(chain, b)
	}
	free := map[uint64][]uint64{}
	objects := map[uint64]uint64{}
	level := func(lfree map[uint64][]uint64, used map[uint64]int,
		lobjects map[uint64]uint64, dead map[uint64]bool) {
		for r, k := range used {
			free[r] = free[r][:len(free[r])-k]
		}
		for r, lst := range lfree {
			free[r] = append(free[r], lst...)
		}
		for a := range dead {
			delete(objects, a)
		}
		for a, s := range lobjects {
			objects[a] = s
		}
	}
	for i := len(chain) - 1; i >= 0; i-- {
		b := chain[i]
		level(b.free, b.used, b.objects, b.dead)
	}
	level(hs.free, hs.used, hs.objects, hs.dead)
	return free, objects
}

// flatten collapses the overlay chain into flat private maps.
func (hs *heapState) flatten() {
	hs.free, hs.objects = hs.flatMaps()
	hs.base, hs.used, hs.dead = nil, nil, nil
}

// clone duplicates the allocator state by freezing the delta maps into an
// immutable shared base: O(1) regardless of how many objects are live, and
// the first post-clone Alloc/Free is O(1) too, reading through the base
// instead of deep-copying it.
func (hs *heapState) clone() *heapState {
	hs.freeze()
	return &heapState{brk: hs.brk, base: hs.base,
		liveCount: hs.liveCount, allocBytes: hs.allocBytes}
}

// recloneFrom makes hs a clone of src in place, reusing hs's private delta
// maps (cleared, capacity retained) instead of allocating fresh ones — the
// allocator half of AddressSpace.RecloneFrom. Reuse is safe because freeze
// moves any map a clone could share into the immutable base chain: a map
// still referenced from a heapState has never been visible to another
// space.
func (hs *heapState) recloneFrom(src *heapState) {
	src.freeze()
	hs.brk = src.brk
	hs.base = src.base
	clear(hs.free)
	clear(hs.used)
	clear(hs.objects)
	clear(hs.dead)
	hs.liveCount = src.liveCount
	hs.allocBytes = src.allocBytes
}

// objectSize resolves addr through the delta maps and the base chain,
// returning its rounded size if live.
func (hs *heapState) objectSize(addr uint64) (uint64, bool) {
	if sz, ok := hs.objects[addr]; ok {
		return sz, true
	}
	if hs.dead[addr] {
		return 0, false
	}
	for b := hs.base; b != nil; b = b.parent {
		if sz, ok := b.objects[addr]; ok {
			return sz, true
		}
		if b.dead[addr] {
			return 0, false
		}
	}
	return 0, false
}

// eachObject visits every live object once: newest level first, tombstoned
// and shadowed deeper entries skipped.
func (hs *heapState) eachObject(visit func(addr, size uint64)) {
	seen := map[uint64]bool{}
	level := func(objects map[uint64]uint64, dead map[uint64]bool) {
		for a, s := range objects {
			if !seen[a] {
				seen[a] = true
				visit(a, s)
			}
		}
		for a := range dead {
			seen[a] = true
		}
	}
	level(hs.objects, hs.dead)
	for b := hs.base; b != nil; b = b.parent {
		level(b.objects, b.dead)
	}
}

// Stats counts memory-system events, exposed for the paper's overhead
// accounting (Figure 8) and for tests.
type Stats struct {
	// PagesMapped counts demand-zero page instantiations.
	PagesMapped int64
	// PagesCopied counts copy-on-write duplications.
	PagesCopied int64
	// NodesCopied counts radix page-table nodes path-copied on first
	// mutation under a shared subtree (range-COW splits).
	NodesCopied int64
	// SummaryHits counts subtrees skipped outright by dirty-summary-guided
	// walks (DirtyPages/DirtyHeapPages).
	SummaryHits int64
}

// tlbEntry is one cached translation of the software TLB: page number to
// resolved page. A read entry proves the translation passed its protection
// check; a write entry additionally proves the page is privately owned
// (copy-on-write already resolved), so a hit may store directly.
type tlbEntry struct {
	pn uint64
	pg *page
}

// tlbSize is the number of direct-mapped TLB entries (a power of two).
const tlbSize = 64

// AddressSpace is one simulated process's view of memory: a multi-level
// radix page table plus per-heap allocator state and protections.
type AddressSpace struct {
	// root is the radix page table (see pagetable.go). Clones share
	// subtrees copy-on-write at range granularity: epoch identifies which
	// nodes this space owns, and every node it does not own is path-copied
	// before mutation. A node reachable from two or more spaces is never
	// mutated.
	root  *radixNode
	epoch uint64
	heaps [ir.NumHeaps]*heapState
	prot  [ir.NumHeaps]Prot

	// rtlb and wtlb are small direct-mapped software TLBs consulted before
	// the page map: rtlb caches protection-checked read translations, wtlb
	// caches write translations to privately owned pages. Both are flushed
	// on Clone, SetProt, ResetHeap and CopyHeapFrom; COW resolution updates
	// the affected entry in place.
	rtlb [tlbSize]tlbEntry
	wtlb [tlbSize]tlbEntry

	// Stats accumulates event counts; shared pointer across clones when
	// cloned with CloneSharingStats (updates then go through atomics so
	// concurrent worker clones may aggregate into one structure).
	Stats *Stats
	// statsAtomic selects atomic Stats updates; set once Stats may be
	// shared with concurrently executing clones.
	statsAtomic bool

	// Occ, when non-nil, mirrors this space's per-heap allocator totals in
	// atomic counters for live introspection (see occupancy.go). Clones do
	// NOT inherit it: worker spaces are scratch views, and the master's
	// occupancy is the program's authoritative heap state.
	Occ *HeapOccupancy

	// Trace receives page-layer events (COW duplication, TLB flushes,
	// protection faults); nil disables emission. Clones inherit the tracer.
	Trace *obs.Tracer
	// TraceWorker labels this space's events (-1 = master).
	TraceWorker int
	// TraceInv is the current region invocation (-1 = outside any region).
	TraceInv int64
}

// addStat bumps one Stats counter, atomically when the Stats structure may
// be shared with concurrently executing clones.
func (as *AddressSpace) addStat(p *int64, n int64) {
	if as.statsAtomic {
		atomic.AddInt64(p, n)
	} else {
		*p += n
	}
}

// flushTLB drops every cached translation; cause labels the trace event.
func (as *AddressSpace) flushTLB(cause string) {
	as.rtlb = [tlbSize]tlbEntry{}
	as.wtlb = [tlbSize]tlbEntry{}
	as.Trace.Instant(obs.Event{Kind: obs.KTLBFlush,
		Invocation: as.TraceInv, Worker: as.TraceWorker, Iter: -1, Cause: cause})
}

// NewAddressSpace returns an empty address space with every heap mapped
// read-write and empty.
func NewAddressSpace() *AddressSpace {
	epoch := nextEpoch()
	as := &AddressSpace{root: newInterior(epoch), epoch: epoch,
		Stats: &Stats{}, TraceWorker: -1, TraceInv: -1}
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		as.heaps[h] = newHeapState(h)
		as.prot[h] = ProtReadWrite
	}
	return as
}

// Clone returns a copy-on-write duplicate of the address space, as fork
// would produce: both spaces share physical pages until either writes.
// Cloning is lazy at range granularity: parent and child share the radix
// table's subtrees, and both sides take fresh ownership epochs, which marks
// every existing node shared in O(1). The first mutation under a shared
// subtree path-copies only the nodes on the way down (marking the split
// leaf's pages copy-on-write), so spawning a read-mostly worker costs O(1),
// not O(mapped pages) or O(live allocations).
func (as *AddressSpace) Clone() *AddressSpace {
	as.epoch = nextEpoch()
	as.flushTLB("clone")
	c := &AddressSpace{root: as.root, epoch: nextEpoch(), Stats: &Stats{},
		Trace: as.Trace, TraceWorker: as.TraceWorker, TraceInv: as.TraceInv}
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		c.heaps[h] = as.heaps[h].clone()
		c.prot[h] = as.prot[h]
	}
	return c
}

// CloneSharingStats is Clone, except the child accumulates into the
// parent's Stats structure instead of a fresh one. The speculative runtime
// spawns its workers this way so fork-style page-copy counts aggregate
// across the whole worker fleet (the paper's Figure 8 overhead accounting).
// Both spaces switch to atomic Stats updates, since clones typically run on
// concurrent worker goroutines.
func (as *AddressSpace) CloneSharingStats() *AddressSpace {
	as.statsAtomic = true
	c := as.Clone()
	c.Stats = as.Stats
	c.statsAtomic = true
	return c
}

// AtomicStats switches this space's Stats updates to atomic operations, so
// a concurrent reader (a live metrics scrape) may load the counters with
// sync/atomic while the space executes. CloneSharingStats implies it.
func (as *AddressSpace) AtomicStats() { as.statsAtomic = true }

// RecloneFrom re-targets as to be a fresh copy-on-write clone of parent —
// semantically identical to parent.CloneSharingStats(), except that no new
// AddressSpace, TLB arrays or heap-state slots are allocated: the receiver's
// existing structure (including the delta-map capacity its allocator grew on
// earlier runs) is reused in place. The region service's warmed worker pool
// spawns recycled workers this way, amortizing the per-spawn allocation
// churn across invocations. The receiver must not be aliased by any other
// execution (a pooled space between uses); any state it held is discarded.
func (as *AddressSpace) RecloneFrom(parent *AddressSpace) {
	parent.statsAtomic = true
	parent.epoch = nextEpoch()
	parent.flushTLB("clone")
	as.root = parent.root
	as.epoch = nextEpoch()
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		as.heaps[h].recloneFrom(parent.heaps[h])
		as.prot[h] = parent.prot[h]
	}
	as.Stats = parent.Stats
	as.statsAtomic = true
	as.Occ = nil
	as.Trace = parent.Trace
	as.TraceWorker = parent.TraceWorker
	as.TraceInv = parent.TraceInv
	as.flushTLB("reclone")
}

// Release detaches as from whatever parent it was recloned from: the radix
// root is replaced by a fresh empty table and every heap returns to its
// empty post-construction state, so a pooled space does not pin a dead
// invocation's pages in memory while it waits for reuse. The structure
// itself (TLB arrays, heap-state slots, delta-map capacity) is retained for
// the next RecloneFrom.
func (as *AddressSpace) Release() {
	as.epoch = nextEpoch()
	as.root = newInterior(as.epoch)
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		hs := as.heaps[h]
		hs.brk = h.Base() + PageSize
		hs.base = nil
		clear(hs.free)
		clear(hs.used)
		clear(hs.objects)
		clear(hs.dead)
		hs.liveCount, hs.allocBytes = 0, 0
		as.prot[h] = ProtReadWrite
	}
	as.Stats = &Stats{}
	as.statsAtomic = false
	as.Occ = nil
	as.Trace = nil
	as.flushTLB("release")
}

// SetProt sets the protection of an entire logical heap, the granularity at
// which Privateer manipulates page maps.
func (as *AddressSpace) SetProt(h ir.HeapKind, p Prot) {
	as.prot[h] = p
	as.flushTLB("setprot")
}

// ProtOf returns the protection of heap h.
func (as *AddressSpace) ProtOf(h ir.HeapKind) Prot { return as.prot[h] }

// pageFor returns the page containing addr, instantiating a demand-zero page
// if needed; forWrite resolves copy-on-write. Callers must have passed
// checkProt for the access: pageFor caches the translation in the TLB, and a
// TLB hit implies the protection check already succeeded.
func (as *AddressSpace) pageFor(addr uint64, forWrite bool) *page {
	key := addr >> PageShift
	if !forWrite {
		// Reads of already-mapped pages descend straight through shared
		// subtrees without copying anything.
		if e := as.peek(key); e != nil {
			as.rtlb[key&(tlbSize-1)] = tlbEntry{pn: key, pg: e.pg}
			return e.pg
		}
	}
	// Any mutation (instantiation or COW resolution) path-copies the shared
	// part of the branch first, then maintains the dirty summaries.
	var path [radixLevels]*radixNode
	leaf := as.ownPath(key, &path)
	slot := slotOf(key, radixLevels-1)
	e := &leaf.entries[slot]
	if e.pg == nil {
		e.pg = &page{}
		as.addStat(&as.Stats.PagesMapped, 1)
		as.markDirty(&path, slot)
	} else if forWrite && e.cow {
		dup := &page{data: e.pg.data}
		e.pg = dup
		e.cow = false
		as.addStat(&as.Stats.PagesCopied, 1)
		as.markDirty(&path, slot)
		as.Trace.Instant(obs.Event{Kind: obs.KCOWCopy,
			Invocation: as.TraceInv, Worker: as.TraceWorker, Iter: -1,
			A: int64(key << PageShift)})
	}
	idx := key & (tlbSize - 1)
	// COW resolution replaced the page this space reads at key, so the
	// read entry is refreshed alongside the write entry.
	as.rtlb[idx] = tlbEntry{pn: key, pg: e.pg}
	if forWrite {
		as.wtlb[idx] = tlbEntry{pn: key, pg: e.pg}
	}
	return e.pg
}

func (as *AddressSpace) checkProt(addr uint64, size uint64, write bool) error {
	h := ir.HeapOf(addr)
	p := as.prot[h]
	if p == ProtNone || (write && p != ProtReadWrite) {
		as.Trace.Instant(obs.Event{Kind: obs.KProtFault,
			Invocation: as.TraceInv, Worker: as.TraceWorker, Iter: -1,
			A: int64(addr), Cause: "protection " + p.String()})
		return &Fault{Addr: addr, Write: write, Reason: "protection " + p.String()}
	}
	// Guard the unmapped null page of the system heap.
	if addr < PageSize {
		return &Fault{Addr: addr, Write: write, Reason: "null page"}
	}
	return nil
}

// ReadBytes copies size bytes starting at addr into dst.
func (as *AddressSpace) ReadBytes(addr uint64, dst []byte) error {
	if err := as.checkProt(addr, uint64(len(dst)), false); err != nil {
		return err
	}
	for len(dst) > 0 {
		off := addr & (PageSize - 1)
		n := uint64(PageSize) - off
		if n > uint64(len(dst)) {
			n = uint64(len(dst))
		}
		pg := as.pageFor(addr, false)
		copy(dst[:n], pg.data[off:off+n])
		dst = dst[n:]
		addr += n
	}
	return nil
}

// WriteBytes copies src into memory starting at addr.
func (as *AddressSpace) WriteBytes(addr uint64, src []byte) error {
	if err := as.checkProt(addr, uint64(len(src)), true); err != nil {
		return err
	}
	for len(src) > 0 {
		off := addr & (PageSize - 1)
		n := uint64(PageSize) - off
		if n > uint64(len(src)) {
			n = uint64(len(src))
		}
		pg := as.pageFor(addr, true)
		copy(pg.data[off:off+n], src[:n])
		src = src[n:]
		addr += n
	}
	return nil
}

// loadLE reads a size-byte (1, 2, 4 or 8) little-endian word from b.
func loadLE(b []byte, size int64) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

// storeLE writes the low size (1, 2, 4 or 8) bytes of val to b,
// little-endian.
func storeLE(b []byte, size int64, val uint64) {
	switch size {
	case 1:
		b[0] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(val))
	default:
		binary.LittleEndian.PutUint64(b, val)
	}
}

// pow2Size reports whether size is a standard access width (1, 2, 4, 8).
func pow2Size(size int64) bool {
	return size > 0 && size <= 8 && size&(size-1) == 0
}

// Read loads size (1, 2, 4 or 8) bytes at addr as a little-endian,
// zero-extended word.
func (as *AddressSpace) Read(addr uint64, size int64) (uint64, error) {
	off := addr & (PageSize - 1)
	if off+uint64(size) <= PageSize && pow2Size(size) {
		// Single-page aligned-width access: TLB hit skips the protection
		// check (proven at fill time) and the page-map lookup.
		pn := addr >> PageShift
		if e := &as.rtlb[pn&(tlbSize-1)]; e.pn == pn && e.pg != nil {
			return loadLE(e.pg.data[off:], size), nil
		}
		if err := as.checkProt(addr, uint64(size), false); err != nil {
			return 0, err
		}
		return loadLE(as.pageFor(addr, false).data[off:], size), nil
	}
	if err := as.checkProt(addr, uint64(size), false); err != nil {
		return 0, err
	}
	var buf [8]byte
	if err := as.ReadBytes(addr, buf[:size]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]) & sizeMask(size), nil
}

// Write stores the low size bytes of val at addr, little-endian.
func (as *AddressSpace) Write(addr uint64, size int64, val uint64) error {
	off := addr & (PageSize - 1)
	if off+uint64(size) <= PageSize && pow2Size(size) {
		// A write-TLB hit proves the page is privately owned and the heap
		// writable, so the store lands directly.
		pn := addr >> PageShift
		if e := &as.wtlb[pn&(tlbSize-1)]; e.pn == pn && e.pg != nil {
			storeLE(e.pg.data[off:], size, val)
			return nil
		}
		if err := as.checkProt(addr, uint64(size), true); err != nil {
			return err
		}
		storeLE(as.pageFor(addr, true).data[off:], size, val)
		return nil
	}
	if err := as.checkProt(addr, uint64(size), true); err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	return as.WriteBytes(addr, buf[:size])
}

// ReadF64 loads an IEEE binary64 at addr.
func (as *AddressSpace) ReadF64(addr uint64) (float64, error) {
	w, err := as.Read(addr, 8)
	return math.Float64frombits(w), err
}

// WriteF64 stores an IEEE binary64 at addr.
func (as *AddressSpace) WriteF64(addr uint64, v float64) error {
	return as.Write(addr, 8, math.Float64bits(v))
}

func sizeMask(size int64) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return (uint64(1) << (8 * size)) - 1
}

const allocAlign = 16

// Alloc carves size bytes out of logical heap h and returns the object's
// base address. Objects never span a heap boundary and inherit the heap's
// address tag.
func (as *AddressSpace) Alloc(h ir.HeapKind, size uint64) (uint64, error) {
	if size == 0 {
		size = 1
	}
	hs := as.heaps[h]
	rounded := (size + allocAlign - 1) &^ uint64(allocAlign-1)
	var addr uint64
	if lst := hs.free[rounded]; len(lst) > 0 {
		// Most recently freed first (LIFO), private frees before base ones.
		addr = lst[len(lst)-1]
		hs.free[rounded] = lst[:len(lst)-1]
	} else if a, ok := hs.base.entryFromEnd(rounded, hs.used[rounded]); ok {
		addr = a
		if hs.used == nil {
			hs.used = map[uint64]int{}
		}
		hs.used[rounded]++
	} else {
		addr = hs.brk
		hs.brk += rounded
		if ir.HeapOf(hs.brk) != h {
			return 0, fmt.Errorf("vm: heap %s exhausted (16 TB)", h)
		}
	}
	if hs.objects == nil {
		hs.objects = map[uint64]uint64{}
	}
	hs.objects[addr] = rounded
	hs.liveCount++
	hs.allocBytes += size
	if as.Occ != nil {
		as.Occ.alloc(h, size, rounded)
	}
	return addr, nil
}

// Free releases the object at addr, which must have been returned by Alloc
// on the same (or an ancestor) address space.
func (as *AddressSpace) Free(addr uint64) error {
	h := ir.HeapOf(addr)
	hs := as.heaps[h]
	rounded, live := hs.objectSize(addr)
	if !live {
		return fmt.Errorf("vm: free of non-allocated address %#x (%s heap)", addr, h)
	}
	if _, own := hs.objects[addr]; own {
		delete(hs.objects, addr)
	} else {
		if hs.dead == nil {
			hs.dead = map[uint64]bool{}
		}
		hs.dead[addr] = true
	}
	hs.liveCount--
	if hs.free == nil {
		hs.free = map[uint64][]uint64{}
	}
	hs.free[rounded] = append(hs.free[rounded], addr)
	if as.Occ != nil {
		as.Occ.free(h, rounded)
	}
	return nil
}

// ObjectSize returns the rounded size of the live object at addr, or 0.
func (as *AddressSpace) ObjectSize(addr uint64) uint64 {
	sz, _ := as.heaps[ir.HeapOf(addr)].objectSize(addr)
	return sz
}

// LiveObjects returns the number of live allocations in heap h, used to
// validate short-lived object lifetimes at iteration boundaries.
func (as *AddressSpace) LiveObjects(h ir.HeapKind) int { return as.heaps[h].liveCount }

// AllocatedBytes returns total bytes ever allocated from heap h.
func (as *AddressSpace) AllocatedBytes(h ir.HeapKind) uint64 { return as.heaps[h].allocBytes }

// Brk returns the bump pointer of heap h (its high-water mark).
func (as *AddressSpace) Brk(h ir.HeapKind) uint64 { return as.heaps[h].brk }

// clearHeapSubtrees detaches heap h's root subtrees (an O(16) range
// operation) and resynchronizes the root's dirty summary, which must keep
// upper-bounding the dirty pages reachable along owned paths.
func (as *AddressSpace) clearHeapSubtrees(h ir.HeapKind) {
	if as.root.epoch != as.epoch {
		as.root = as.root.copyAs(as.epoch)
		as.addStat(&as.Stats.NodesCopied, 1)
	}
	lo, hi := heapSlotRange(h)
	for s := lo; s < hi; s++ {
		as.root.kids[s] = nil
	}
	var dirty int64
	for _, kid := range as.root.kids {
		if kid != nil && kid.epoch == as.epoch {
			dirty += kid.dirty
		}
	}
	as.root.dirty = dirty
}

// ResetHeap discards all allocations and contents of heap h, returning it to
// its initial empty state (fresh pages on next touch).
func (as *AddressSpace) ResetHeap(h ir.HeapKind) {
	as.clearHeapSubtrees(h)
	as.heaps[h] = newHeapState(h)
	if as.Occ != nil {
		as.Occ.resync(h, as.heaps[h])
	}
	as.flushTLB("reset-heap")
}

// CopyHeapFrom replaces this space's view of heap h with src's: page
// contents are duplicated into entries marked copy-on-write (so they stay
// out of DirtyPages, exactly like a checkpoint-installed image), and the
// allocator state is cloned. This is the simulated equivalent of the
// recovery path's "several calls to mmap" that install a checkpoint's heap
// images.
func (as *AddressSpace) CopyHeapFrom(src *AddressSpace, h ir.HeapKind) {
	as.clearHeapSubtrees(h)
	var path [radixLevels]*radixNode
	src.HeapPages(h, func(base uint64, data []byte) {
		pn := base >> PageShift
		leaf := as.ownPath(pn, &path)
		e := &leaf.entries[slotOf(pn, radixLevels-1)]
		dup := &page{}
		copy(dup.data[:], data)
		*e = pageEntry{pg: dup, cow: true}
	})
	as.heaps[h] = src.heaps[h].clone()
	if as.Occ != nil {
		as.Occ.resync(h, as.heaps[h])
	}
	as.flushTLB("copy-heap")
	src.flushTLB("copy-heap")
}

// DirtyPages calls visit for every page this address space owns privately —
// pages written since the last Clone (COW-resolved) or newly instantiated.
// The walk is summary-guided: shared or untouched subtrees are skipped
// without descending (O(touched pages), not O(resident footprint)). The
// data slice aliases live memory and must not be retained.
func (as *AddressSpace) DirtyPages(visit func(base uint64, data []byte)) {
	as.walkDirty(as.root, 0, func(base uint64, e *pageEntry) {
		visit(base, e.pg.data[:])
	})
}

// DirtyHeapPages is DirtyPages restricted to heap h: a summary-guided walk
// over the heap's root-slot range that skips shared and untouched subtrees
// outright. The data slice aliases live memory and must not be retained.
func (as *AddressSpace) DirtyHeapPages(h ir.HeapKind, visit func(base uint64, data []byte)) {
	if as.root.epoch != as.epoch || as.root.dirty == 0 {
		as.addStat(&as.Stats.SummaryHits, 1)
		return
	}
	lo, hi := heapSlotRange(h)
	for s := lo; s < hi; s++ {
		if kid := as.root.kids[s]; kid != nil {
			as.walkDirty(kid, s, func(base uint64, e *pageEntry) {
				visit(base, e.pg.data[:])
			})
		}
	}
}

// WritablePage returns the full, privately owned page containing addr,
// instantiating it and resolving copy-on-write as a store would. The shadow
// layer uses it to batch whole-page metadata updates (span privacy marks,
// checkpoint resets) into one translation instead of one per byte. The
// slice aliases live memory and must not be retained across Clone/SetProt.
func (as *AddressSpace) WritablePage(addr uint64) ([]byte, error) {
	// A write-TLB hit proves the page is privately owned and writable.
	pn := addr >> PageShift
	if e := &as.wtlb[pn&(tlbSize-1)]; e.pn == pn && e.pg != nil {
		return e.pg.data[:], nil
	}
	if err := as.checkProt(addr, 1, true); err != nil {
		return nil, err
	}
	return as.pageFor(addr, true).data[:], nil
}

// PageData returns the contents of the page containing addr without
// instantiating it; ok is false for never-touched pages (all zero).
func (as *AddressSpace) PageData(addr uint64) ([]byte, bool) {
	e := as.peek(addr >> PageShift)
	if e == nil {
		return nil, false
	}
	return e.pg.data[:], true
}

// heapWalkAll visits every instantiated page entry of heap h, regardless of
// ownership or dirty state.
func (as *AddressSpace) heapWalkAll(h ir.HeapKind, visit func(base uint64, e *pageEntry)) {
	lo, hi := heapSlotRange(h)
	for s := lo; s < hi; s++ {
		if kid := as.root.kids[s]; kid != nil {
			kid.walkAll(s, visit)
		}
	}
}

// HeapPages calls visit for every instantiated page of heap h with the
// page's base address and contents. The contents slice aliases live memory
// and must not be retained.
func (as *AddressSpace) HeapPages(h ir.HeapKind, visit func(base uint64, data []byte)) {
	as.heapWalkAll(h, func(base uint64, e *pageEntry) {
		visit(base, e.pg.data[:])
	})
}
