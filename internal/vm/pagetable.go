package vm

import (
	"sync/atomic"

	"privateer/internal/ir"
)

// The multi-level (radix) page table.
//
// Page numbers are 35 bits (addresses stay below 2^47: three tag bits at
// TagShift=44 over a 44-bit offset, minus the 12-bit page offset), split
// into five 7-bit radix levels. The top level therefore indexes page-number
// bits [28,35), of which the high three are the heap tag — every logical
// heap owns a contiguous run of 16 top-level slots, so heap-granular walks
// and resets are range operations on the root.
//
// Sharing is range-COW by epoch instead of per-entry flags copied up front:
// every node records the epoch of the address space that created it, and a
// node is *owned* by a space iff node.epoch == as.epoch. Clone gives both
// sides fresh epochs, which marks every existing subtree shared in O(1);
// the first mutation under a shared subtree path-copies just the five nodes
// on the way down (the split), marking the copied leaf's present entries
// copy-on-write. A node reachable from two or more spaces is never mutated
// — the invariant that lets a space and its clones run on concurrent
// goroutines (see TestConcurrentCloneIsolation).
//
// Dirty tracking is summarized per subtree: the store path sets a per-leaf
// dirty bitmap bit and bumps a touched-page counter on every node along the
// owned path. DirtyPages and DirtyHeapPages walk only owned nodes whose
// counter is non-zero, skipping untouched subtrees outright (each skip of a
// populated subtree counts as a summary hit), so collecting a worker's
// speculative state is O(touched pages), not O(resident footprint).

const (
	// radixBits is the index width of one radix level.
	radixBits = 7
	// radixFanout is the child count of one radix node.
	radixFanout = 1 << radixBits
	// radixLevels is the tree depth: radixLevels*radixBits covers the full
	// 35-bit page-number space.
	radixLevels = 5
)

// epochCounter issues globally unique ownership epochs; every Clone hands a
// fresh epoch to both sides, so no two spaces ever own the same epoch.
var epochCounter uint64

func nextEpoch() uint64 { return atomic.AddUint64(&epochCounter, 1) }

// slotOf extracts the radix index of page number pn at tree level lvl
// (0 = root).
func slotOf(pn uint64, lvl int) uint64 {
	return (pn >> uint((radixLevels-1-lvl)*radixBits)) & (radixFanout - 1)
}

// radixNode is one page-table node. Interior nodes use kids; leaves use
// entries plus the dirty bitmap. epoch identifies the owning space (see the
// package comment above), and dirty counts pages dirtied under this node
// along owned paths since the owner's last Clone.
type radixNode struct {
	epoch uint64
	dirty int64
	kids  []*radixNode // interior level: radixFanout children
	// entries holds the leaf level's page slots; entries[i].pg == nil means
	// the page was never instantiated.
	entries []pageEntry
	// dirtyBits marks leaf slots dirtied since the owner's last Clone.
	dirtyBits [radixFanout / 64]uint64
}

func newInterior(epoch uint64) *radixNode {
	return &radixNode{epoch: epoch, kids: make([]*radixNode, radixFanout)}
}

func newLeaf(epoch uint64) *radixNode {
	return &radixNode{epoch: epoch, entries: make([]pageEntry, radixFanout)}
}

// copyAs returns a private duplicate of nd owned by epoch — the split half
// of range-COW. A copied leaf marks every present entry copy-on-write and
// forgets dirty state: the copy belongs to a new ownership generation that
// has not written anything yet.
func (nd *radixNode) copyAs(epoch uint64) *radixNode {
	if nd.kids != nil {
		c := &radixNode{epoch: epoch, kids: make([]*radixNode, radixFanout)}
		copy(c.kids, nd.kids)
		return c
	}
	c := &radixNode{epoch: epoch, entries: make([]pageEntry, radixFanout)}
	copy(c.entries, nd.entries)
	for i := range c.entries {
		if c.entries[i].pg != nil {
			c.entries[i].cow = true
		}
	}
	return c
}

// leafDirty reports whether leaf slot i is marked dirty.
func (nd *radixNode) leafDirty(i uint64) bool {
	return nd.dirtyBits[i>>6]&(1<<(i&63)) != 0
}

// peek descends to pn's page entry without copying or instantiating
// anything, reading straight through shared subtrees. It returns nil if the
// page was never instantiated.
func (as *AddressSpace) peek(pn uint64) *pageEntry {
	nd := as.root
	for lvl := 0; lvl < radixLevels-1; lvl++ {
		nd = nd.kids[slotOf(pn, lvl)]
		if nd == nil {
			return nil
		}
	}
	e := &nd.entries[slotOf(pn, radixLevels-1)]
	if e.pg == nil {
		return nil
	}
	return e
}

// ownPath descends to pn's leaf, path-copying every shared node on the way
// (the range-COW split) so the caller may mutate the leaf. path receives
// the five owned nodes root-to-leaf for dirty-summary maintenance.
func (as *AddressSpace) ownPath(pn uint64, path *[radixLevels]*radixNode) *radixNode {
	if as.root.epoch != as.epoch {
		as.root = as.root.copyAs(as.epoch)
		as.addStat(&as.Stats.NodesCopied, 1)
	}
	nd := as.root
	path[0] = nd
	for lvl := 0; lvl < radixLevels-1; lvl++ {
		slot := slotOf(pn, lvl)
		kid := nd.kids[slot]
		switch {
		case kid == nil:
			if lvl == radixLevels-2 {
				kid = newLeaf(as.epoch)
			} else {
				kid = newInterior(as.epoch)
			}
			nd.kids[slot] = kid
		case kid.epoch != as.epoch:
			kid = kid.copyAs(as.epoch)
			as.addStat(&as.Stats.NodesCopied, 1)
			nd.kids[slot] = kid
		}
		nd = kid
		path[lvl+1] = nd
	}
	return nd
}

// markDirty records leaf slot as dirtied, bumping the touched-page counter
// of every node along the owned path. Idempotent per (leaf, slot).
func (as *AddressSpace) markDirty(path *[radixLevels]*radixNode, slot uint64) {
	leaf := path[radixLevels-1]
	if leaf.leafDirty(slot) {
		return
	}
	leaf.dirtyBits[slot>>6] |= 1 << (slot & 63)
	for _, nd := range path {
		nd.dirty++
	}
}

// heapTagBits is the width of the heap tag (ir.TagMask), which forms the
// top bits of the root index.
const heapTagBits = 3

// heapSlotRange returns the root-slot range [lo, hi) covering heap h. The
// heap tag occupies the top three bits of the root index, so each heap is
// exactly 16 contiguous root slots.
func heapSlotRange(h ir.HeapKind) (uint64, uint64) {
	lo := h.Tag() << (radixBits - heapTagBits)
	return lo, lo + 1<<(radixBits-heapTagBits)
}

// walkAll visits every instantiated page under nd (pn is the page-number
// prefix accumulated so far), regardless of ownership or dirty state.
func (nd *radixNode) walkAll(pn uint64, visit func(base uint64, e *pageEntry)) {
	if nd.kids != nil {
		for i, kid := range nd.kids {
			if kid != nil {
				kid.walkAll(pn<<radixBits|uint64(i), visit)
			}
		}
		return
	}
	for i := range nd.entries {
		if e := &nd.entries[i]; e.pg != nil {
			visit((pn<<radixBits|uint64(i))<<PageShift, e)
		}
	}
}

// walkDirty visits every page dirtied since the space's last Clone,
// guided by the dirty summaries: subtrees that are shared (stale epoch) or
// have a zero touched-page count are skipped, and each skip of a populated
// subtree is counted as a summary hit.
func (as *AddressSpace) walkDirty(nd *radixNode, pn uint64, visit func(base uint64, e *pageEntry)) {
	if nd.epoch != as.epoch || nd.dirty == 0 {
		as.addStat(&as.Stats.SummaryHits, 1)
		return
	}
	if nd.kids != nil {
		for i, kid := range nd.kids {
			if kid != nil {
				as.walkDirty(kid, pn<<radixBits|uint64(i), visit)
			}
		}
		return
	}
	for i := range nd.entries {
		if nd.leafDirty(uint64(i)) {
			visit((pn<<radixBits|uint64(i))<<PageShift, &nd.entries[i])
		}
	}
}

// PageTableStats describes one address space's radix page-table occupancy
// and dirty-summary state, for introspection (privateer-dump -pagetable
// and the page-table metrics). Collected by a full walk; do not call it
// concurrently with mutations of the same space.
type PageTableStats struct {
	// Levels is the radix-tree depth.
	Levels int `json:"levels"`
	// Fanout is the per-node branching factor.
	Fanout int `json:"fanout"`
	// Nodes counts reachable radix nodes.
	Nodes int64 `json:"nodes"`
	// OwnedNodes counts the subset of nodes this space owns (created since
	// its last Clone).
	OwnedNodes int64 `json:"owned_nodes"`
	// ResidentPages counts instantiated pages.
	ResidentPages int64 `json:"resident_pages"`
	// DirtyPages counts pages dirtied since the last Clone (owned paths
	// only).
	DirtyPages int64 `json:"dirty_pages"`
	// HeapResident breaks ResidentPages down per logical heap, in tag order.
	HeapResident [ir.NumHeaps]int64 `json:"heap_resident"`
}

// PageTable walks the radix table and returns its occupancy statistics.
func (as *AddressSpace) PageTable() PageTableStats {
	st := PageTableStats{Levels: radixLevels, Fanout: radixFanout}
	var walk func(nd *radixNode)
	walk = func(nd *radixNode) {
		st.Nodes++
		if nd.epoch == as.epoch {
			st.OwnedNodes++
			if nd.entries != nil {
				st.DirtyPages += nd.dirty
			}
		}
		for _, kid := range nd.kids {
			if kid != nil {
				walk(kid)
			}
		}
	}
	walk(as.root)
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		lo, hi := heapSlotRange(h)
		for s := lo; s < hi; s++ {
			if kid := as.root.kids[s]; kid != nil {
				kid.walkAll(s, func(uint64, *pageEntry) { st.HeapResident[h]++ })
			}
		}
	}
	for h := range st.HeapResident {
		st.ResidentPages += st.HeapResident[h]
	}
	return st
}
