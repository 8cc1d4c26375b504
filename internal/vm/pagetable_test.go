package vm

import (
	"math/rand"
	"testing"

	"privateer/internal/ir"
)

// TestHeapSlotRangeCoversTags checks the root-slot geometry: every heap's
// 16 contiguous top-level slots must cover exactly its 16 TB address range.
func TestHeapSlotRangeCoversTags(t *testing.T) {
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		lo, hi := heapSlotRange(h)
		if hi-lo != radixFanout/(1<<heapTagBits) {
			t.Errorf("%s: slot range [%d,%d) has width %d, want 16", h, lo, hi, hi-lo)
		}
		wantLo := (h.Base() >> PageShift) >> uint((radixLevels-1)*radixBits)
		if lo != wantLo {
			t.Errorf("%s: slot range starts at %d, want %d", h, lo, wantLo)
		}
		// The first and last pages of the heap must index into the range.
		first := slotOf(h.Base()>>PageShift, 0)
		last := slotOf((h.Base()+(uint64(1)<<ir.TagShift)-PageSize)>>PageShift, 0)
		if first != lo || last != hi-1 {
			t.Errorf("%s: first/last page slots %d/%d, want %d/%d", h, first, last, lo, hi-1)
		}
	}
}

// TestCloneCostIndependentOfLiveObjects pins the lazy allocator clone
// (satellite of the radix refactor): spawning a worker from a parent with
// 20k live objects must allocate exactly as much as spawning from a parent
// with 20 — the free/objects maps are shared, not deep-copied.
func TestCloneCostIndependentOfLiveObjects(t *testing.T) {
	spawnAllocs := func(liveObjects int) float64 {
		parent := NewAddressSpace()
		for i := 0; i < liveObjects; i++ {
			if _, err := parent.Alloc(ir.HeapPrivate, 64); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() { parent.Clone() })
	}
	small, large := spawnAllocs(20), spawnAllocs(20000)
	if small != large {
		t.Errorf("Clone allocations grew with live objects: %v (20 objects) vs %v (20000 objects)",
			small, large)
	}
	// And the clone must still see and manage the parent's allocations.
	parent := NewAddressSpace()
	addrs := make([]uint64, 100)
	for i := range addrs {
		a, _ := parent.Alloc(ir.HeapPrivate, 48)
		addrs[i] = a
	}
	child := parent.Clone()
	if child.LiveObjects(ir.HeapPrivate) != 100 {
		t.Fatalf("child sees %d live objects, want 100", child.LiveObjects(ir.HeapPrivate))
	}
	if err := child.Free(addrs[0]); err != nil {
		t.Fatal(err)
	}
	if got, err := child.Alloc(ir.HeapPrivate, 48); err != nil || got != addrs[0] {
		t.Errorf("child free-list reuse: got %#x, %v; want %#x", got, err, addrs[0])
	}
	// The child's mutations must not leak back into the parent.
	if parent.LiveObjects(ir.HeapPrivate) != 100 {
		t.Errorf("parent live count disturbed by child: %d", parent.LiveObjects(ir.HeapPrivate))
	}
	if parent.ObjectSize(addrs[0]) == 0 {
		t.Error("parent lost object freed only in the child")
	}
}

// TestPostCloneMutationCostIndependentOfLiveObjects pins the other half of
// the lazy allocator clone (the per-span reset cost this PR fixes): the
// FIRST Alloc/Free after a clone must not deep-copy the shared free/objects
// maps, so its cost is independent of how many objects the parent holds
// live. The overlay chain makes the whole clone+mutate cycle O(1).
func TestPostCloneMutationCostIndependentOfLiveObjects(t *testing.T) {
	cycleAllocs := func(liveObjects int) float64 {
		parent := NewAddressSpace()
		for i := 0; i < liveObjects; i++ {
			if _, err := parent.Alloc(ir.HeapPrivate, 64); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			child := parent.Clone()
			a, err := child.Alloc(ir.HeapPrivate, 48)
			if err != nil {
				t.Fatal(err)
			}
			if err := child.Free(a); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := cycleAllocs(20), cycleAllocs(20000)
	if small != large {
		t.Errorf("post-clone mutation allocations grew with live objects: %v (20 objects) vs %v (20000 objects)",
			small, large)
	}

	// Functional check across the overlay chain: LIFO free-list order must
	// hold through clone boundaries and tombstoned reallocation.
	parent := NewAddressSpace()
	var a [4]uint64
	for i := range a {
		a[i], _ = parent.Alloc(ir.HeapPrivate, 48)
	}
	parent.Free(a[3])
	parent.Free(a[2]) // parent free list (oldest first): a3, a2
	child := parent.Clone()
	if got, _ := child.Alloc(ir.HeapPrivate, 48); got != a[2] {
		t.Errorf("child pop 1 = %#x, want %#x (LIFO through the shared base)", got, a[2])
	}
	grand := child.Clone() // chain depth 2: child's consumption must carry over
	if got, _ := grand.Alloc(ir.HeapPrivate, 48); got != a[3] {
		t.Errorf("grandchild pop = %#x, want %#x (consumption not inherited)", got, a[3])
	}
	grand.Free(a[0]) // tombstone a base object, then reallocate it
	if got, _ := grand.Alloc(ir.HeapPrivate, 48); got != a[0] {
		t.Errorf("tombstoned base object not reallocated: got %#x, want %#x", got, a[0])
	}
	if grand.ObjectSize(a[0]) == 0 {
		t.Error("reallocated object reads as dead through the tombstone")
	}
	// The parent still sees its own free list untouched by descendants.
	if got, _ := parent.Alloc(ir.HeapPrivate, 48); got != a[2] {
		t.Errorf("parent pop disturbed by descendants: got %#x, want %#x", got, a[2])
	}
	// A heap reset stays O(1) and fully detaches from the shared chain.
	resetAllocs := testing.AllocsPerRun(20, func() { child.ResetHeap(ir.HeapPrivate) })
	if resetAllocs > 4 {
		t.Errorf("ResetHeap allocates %v times, want O(1)", resetAllocs)
	}
	if child.LiveObjects(ir.HeapPrivate) != 0 {
		t.Errorf("reset heap still reports %d live objects", child.LiveObjects(ir.HeapPrivate))
	}
}

// TestAllocatorSharingIsCopiedBeforeMutation exercises the parent-side half
// of the lazy allocator clone: the parent allocating after a clone must not
// disturb the child's shared view.
func TestAllocatorSharingIsCopiedBeforeMutation(t *testing.T) {
	parent := NewAddressSpace()
	a, _ := parent.Alloc(ir.HeapPrivate, 32)
	child := parent.Clone()
	if err := parent.Free(a); err != nil {
		t.Fatal(err)
	}
	if child.ObjectSize(a) == 0 {
		t.Error("parent Free leaked into child's shared allocator state")
	}
	b, _ := parent.Alloc(ir.HeapPrivate, 32)
	if b != a {
		t.Errorf("parent free-list reuse broken after lazy clone: %#x vs %#x", b, a)
	}
	if child.LiveObjects(ir.HeapPrivate) != 1 {
		t.Errorf("child live count disturbed: %d", child.LiveObjects(ir.HeapPrivate))
	}
}

// TestPostCloneMaterializationIsolation is the regression test for the
// stale-translation hazard around deferred materialization (satellite 2):
// a space that keeps serving reads through translations cached while its
// table was shared must never observe the other side's post-clone writes,
// in either materialization order.
func TestPostCloneMaterializationIsolation(t *testing.T) {
	setup := func() (*AddressSpace, *AddressSpace, uint64, uint64) {
		parent := NewAddressSpace()
		base, _ := parent.Alloc(ir.HeapPrivate, 2*PageSize)
		a, b := base, base+PageSize
		if err := parent.Write(a, 8, 11); err != nil {
			t.Fatal(err)
		}
		if err := parent.Write(b, 8, 22); err != nil {
			t.Fatal(err)
		}
		return parent, parent.Clone(), a, b
	}

	// Child materializes first (writes), parent follows.
	parent, child, a, b := setup()
	if v, _ := parent.Read(a, 8); v != 11 { // warm parent's post-clone read TLB
		t.Fatalf("parent warm-up read = %d", v)
	}
	if err := child.Write(a, 8, 1111); err != nil {
		t.Fatal(err)
	}
	if v, _ := parent.Read(a, 8); v != 11 {
		t.Errorf("child write visible through parent translation: %d, want 11", v)
	}
	if err := parent.Write(b, 8, 2222); err != nil { // parent materializes now
		t.Fatal(err)
	}
	if v, _ := parent.Read(a, 8); v != 11 {
		t.Errorf("parent read of a after materialization = %d, want 11", v)
	}
	if v, _ := child.Read(b, 8); v != 22 {
		t.Errorf("parent write visible in child: %d, want 22", v)
	}
	if v, _ := child.Read(a, 8); v != 1111 {
		t.Errorf("child lost its own write: %d", v)
	}

	// Parent materializes first, child follows; the child's cached
	// translations predate the parent's write.
	parent, child, a, b = setup()
	if v, _ := child.Read(a, 8); v != 11 { // warm child's read TLB
		t.Fatalf("child warm-up read = %d", v)
	}
	if err := parent.Write(a, 8, 3333); err != nil {
		t.Fatal(err)
	}
	if v, _ := child.Read(a, 8); v != 11 {
		t.Errorf("parent write visible through child translation: %d, want 11", v)
	}
	if err := child.Write(b, 8, 4444); err != nil {
		t.Fatal(err)
	}
	if v, _ := parent.Read(b, 8); v != 22 {
		t.Errorf("child write visible in parent: %d, want 22", v)
	}
	if v, _ := parent.Read(a, 8); v != 3333 {
		t.Errorf("parent lost its own write: %d", v)
	}
}

// TestDirtyHeapPagesSummaryGuided checks both halves of the dirty-summary
// contract: the walk visits exactly the pages touched since the clone, and
// it skips shared subtrees without descending (counted as summary hits).
func TestDirtyHeapPagesSummaryGuided(t *testing.T) {
	parent := NewAddressSpace()
	base, _ := parent.Alloc(ir.HeapPrivate, 512*PageSize)
	for p := uint64(0); p < 512; p++ {
		if err := parent.Write(base+p*PageSize, 8, p); err != nil {
			t.Fatal(err)
		}
	}
	roBase, _ := parent.Alloc(ir.HeapReadOnly, 64*PageSize)
	for p := uint64(0); p < 64; p++ {
		if err := parent.Write(roBase+p*PageSize, 8, p); err != nil {
			t.Fatal(err)
		}
	}
	child := parent.CloneSharingStats()
	touched := map[uint64]bool{}
	for _, p := range []uint64{0, 1, 130, 131, 300, 511} {
		if err := child.Write(base+p*PageSize, 8, 9000+p); err != nil {
			t.Fatal(err)
		}
		touched[(base+p*PageSize)&^uint64(PageSize-1)] = true
	}
	hitsBefore := child.Stats.SummaryHits
	got := map[uint64]bool{}
	child.DirtyHeapPages(ir.HeapPrivate, func(pb uint64, data []byte) { got[pb] = true })
	if len(got) != len(touched) {
		t.Errorf("dirty walk visited %d pages, want %d", len(got), len(touched))
	}
	for pb := range touched {
		if !got[pb] {
			t.Errorf("dirty walk missed touched page %#x", pb)
		}
	}
	if hits := child.Stats.SummaryHits - hitsBefore; hits <= 0 {
		t.Errorf("summary-guided walk skipped no subtrees (hits = %d)", hits)
	}
	// The shadow heap is untouched: its walk must visit nothing.
	child.DirtyHeapPages(ir.HeapShadow, func(pb uint64, data []byte) {
		t.Errorf("dirty walk of untouched heap visited %#x", pb)
	})
}

// TestPageTableStats sanity-checks the introspection walk used by
// privateer-dump -pagetable and the page-table metrics.
func TestPageTableStats(t *testing.T) {
	as := NewAddressSpace()
	base, _ := as.Alloc(ir.HeapPrivate, 10*PageSize)
	for p := uint64(0); p < 10; p++ {
		if err := as.Write(base+p*PageSize, 8, p); err != nil {
			t.Fatal(err)
		}
	}
	ro, _ := as.Alloc(ir.HeapReadOnly, PageSize)
	if err := as.Write(ro, 8, 1); err != nil {
		t.Fatal(err)
	}
	st := as.PageTable()
	if st.Levels != radixLevels || st.Fanout != radixFanout {
		t.Errorf("geometry = %d/%d, want %d/%d", st.Levels, st.Fanout, radixLevels, radixFanout)
	}
	if st.HeapResident[ir.HeapPrivate] != 10 {
		t.Errorf("private resident = %d, want 10", st.HeapResident[ir.HeapPrivate])
	}
	if st.HeapResident[ir.HeapReadOnly] != 1 {
		t.Errorf("read-only resident = %d, want 1", st.HeapResident[ir.HeapReadOnly])
	}
	if st.ResidentPages != 11 {
		t.Errorf("resident = %d, want 11", st.ResidentPages)
	}
	if st.DirtyPages != 11 {
		t.Errorf("dirty = %d, want 11 (never cloned)", st.DirtyPages)
	}
	if st.OwnedNodes != st.Nodes {
		t.Errorf("never-cloned space owns %d of %d nodes, want all", st.OwnedNodes, st.Nodes)
	}
	child := as.Clone()
	cst := child.PageTable()
	if cst.DirtyPages != 0 {
		t.Errorf("fresh clone dirty = %d, want 0", cst.DirtyPages)
	}
	if cst.ResidentPages != 11 {
		t.Errorf("fresh clone resident = %d, want 11", cst.ResidentPages)
	}
	if cst.OwnedNodes != 0 {
		t.Errorf("fresh clone owns %d nodes, want 0", cst.OwnedNodes)
	}
}

// flatModel is the pre-refactor reference semantics: a flat page map with
// whole-table materialization on first post-clone mutation.
type flatModel struct {
	pages  map[uint64][]byte
	shared bool
}

func (m *flatModel) own() {
	if !m.shared {
		return
	}
	n := make(map[uint64][]byte, len(m.pages))
	for k, v := range m.pages {
		n[k] = append([]byte(nil), v...)
	}
	m.pages, m.shared = n, false
}

func (m *flatModel) write(addr uint64, val byte) {
	m.own()
	pn := addr >> PageShift
	pg, ok := m.pages[pn]
	if !ok {
		pg = make([]byte, PageSize)
		m.pages[pn] = pg
	}
	pg[addr&(PageSize-1)] = val
}

func (m *flatModel) read(addr uint64) byte {
	if pg, ok := m.pages[addr>>PageShift]; ok {
		return pg[addr&(PageSize-1)]
	}
	return 0
}

func (m *flatModel) clone() *flatModel {
	m.shared = true
	return &flatModel{pages: m.pages, shared: true}
}

// TestRadixDifferentialVsFlatModel drives a random interleaving of writes,
// reads, clones, and heap resets through the radix table and the flat
// reference model in lockstep, across a family of spaces related by
// cloning. Any divergence is a COW or translation bug.
func TestRadixDifferentialVsFlatModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type pair struct {
		as *AddressSpace
		fm *flatModel
	}
	heaps := []ir.HeapKind{ir.HeapPrivate, ir.HeapReadOnly, ir.HeapShortLived}
	spaces := []pair{{NewAddressSpace(), &flatModel{pages: map[uint64][]byte{}}}}
	randAddr := func() uint64 {
		h := heaps[rng.Intn(len(heaps))]
		// Spread across ~1000 pages with irregular strides so several radix
		// leaves and interior splits are exercised.
		return h.Base() + PageSize + uint64(rng.Intn(1000*PageSize))
	}
	for step := 0; step < 30000; step++ {
		p := spaces[rng.Intn(len(spaces))]
		switch op := rng.Intn(100); {
		case op < 55: // write
			addr := randAddr()
			val := byte(rng.Intn(256))
			if err := p.as.Write(addr, 1, uint64(val)); err != nil {
				t.Fatalf("step %d: write %#x: %v", step, addr, err)
			}
			p.fm.write(addr, val)
		case op < 90: // read
			addr := randAddr()
			got, err := p.as.Read(addr, 1)
			if err != nil {
				t.Fatalf("step %d: read %#x: %v", step, addr, err)
			}
			if want := p.fm.read(addr); byte(got) != want {
				t.Fatalf("step %d: read %#x = %d, model says %d", step, addr, got, want)
			}
		case op < 97 && len(spaces) < 12: // clone
			spaces = append(spaces, pair{p.as.Clone(), p.fm.clone()})
		default: // reset one heap
			h := heaps[rng.Intn(len(heaps))]
			p.as.ResetHeap(h)
			p.fm.own()
			lo, hi := h.Base()>>PageShift, (h.Base()+(uint64(1)<<ir.TagShift))>>PageShift
			for k := range p.fm.pages {
				if k >= lo && k < hi {
					delete(p.fm.pages, k)
				}
			}
		}
	}
	// Final sweep: every byte the models may disagree on.
	for i, p := range spaces {
		for pn, pg := range p.fm.pages {
			base := pn << PageShift
			for off := 0; off < PageSize; off += 97 {
				got, err := p.as.Read(base+uint64(off), 1)
				if err != nil {
					t.Fatalf("space %d: final read %#x: %v", i, base+uint64(off), err)
				}
				if byte(got) != pg[off] {
					t.Fatalf("space %d: final read %#x = %d, model says %d",
						i, base+uint64(off), got, pg[off])
				}
			}
		}
	}
}

// TestInterpTLBFastPathRevalidated re-checks the TLB contract against the
// radix walk: a read translation warmed through a shared subtree must keep
// working after the subtree is split by an unrelated write to the same
// leaf, and the split must not move pages out from under cached entries.
func TestInterpTLBFastPathRevalidated(t *testing.T) {
	parent := NewAddressSpace()
	base, _ := parent.Alloc(ir.HeapPrivate, 8*PageSize)
	for p := uint64(0); p < 8; p++ {
		if err := parent.Write(base+p*PageSize, 8, 10+p); err != nil {
			t.Fatal(err)
		}
	}
	child := parent.Clone()
	// Warm read translations for pages 0..7 through the shared subtree.
	for p := uint64(0); p < 8; p++ {
		if v, _ := child.Read(base+p*PageSize, 8); v != 10+p {
			t.Fatalf("warm-up read page %d = %d", p, v)
		}
	}
	// Split the leaf with a write to page 3; the other cached translations
	// still point at pages the child legitimately shares.
	if err := child.Write(base+3*PageSize, 8, 999); err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 8; p++ {
		want := 10 + p
		if p == 3 {
			want = 999
		}
		if v, _ := child.Read(base+p*PageSize, 8); v != want {
			t.Errorf("post-split read page %d = %d, want %d", p, v, want)
		}
	}
	// And a parent write to a cached-in-child page must not tear through:
	// the parent COW-resolves its own copy.
	if err := parent.Write(base+5*PageSize, 8, 555); err != nil {
		t.Fatal(err)
	}
	if v, _ := child.Read(base+5*PageSize, 8); v != 15 {
		t.Errorf("parent write leaked through child's cached translation: %d", v)
	}
}
