package vm

import (
	"testing"

	"privateer/internal/ir"
)

// occ is heap h's allocator occupancy: live objects, live rounded bytes,
// and cumulative requested bytes.
type occ struct {
	objs       int
	live, ever uint64
}

func occOf(as *AddressSpace, h ir.HeapKind) occ {
	return occ{as.LiveObjects(h), as.LiveBytes(h), as.AllocatedBytes(h)}
}

// TestOccupancyAllocFree: live bytes/objects must track alloc and free,
// and cumulative alloc bytes must never decrease.
func TestOccupancyAllocFree(t *testing.T) {
	as := NewAddressSpace()
	a, err := as.Alloc(ir.HeapPrivate, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := as.Alloc(ir.HeapPrivate, 50)
	if err != nil {
		t.Fatal(err)
	}
	r := occOf(as, ir.HeapPrivate)
	if r.objs != 2 {
		t.Errorf("live objects %d, want 2", r.objs)
	}
	if r.live < 150 {
		t.Errorf("live bytes %d, want >= 150 (rounded sizes)", r.live)
	}
	if r.ever != 150 {
		t.Errorf("alloc bytes %d, want 150 (requested sizes)", r.ever)
	}
	if err := as.Free(a); err != nil {
		t.Fatal(err)
	}
	r = occOf(as, ir.HeapPrivate)
	if r.objs != 1 {
		t.Errorf("live objects after free %d, want 1", r.objs)
	}
	if r.ever != 150 {
		t.Errorf("alloc bytes after free %d, must stay cumulative", r.ever)
	}
	if err := as.Free(b); err != nil {
		t.Fatal(err)
	}
	r = occOf(as, ir.HeapPrivate)
	if r.objs != 0 || r.live != 0 {
		t.Errorf("after freeing everything: %+v, want zero live state", r)
	}
}

// TestOccupancyResyncOnBulkOps: heap reset and wholesale heap copy replace
// allocator state, and the occupancy must follow.
func TestOccupancyResyncOnBulkOps(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Alloc(ir.HeapPrivate, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Alloc(ir.HeapPrivate, 64); err != nil {
		t.Fatal(err)
	}
	as.ResetHeap(ir.HeapPrivate)
	if r := occOf(as, ir.HeapPrivate); r.objs != 0 || r.live != 0 {
		t.Errorf("after ResetHeap: %+v, want zero live state", r)
	}

	src := NewAddressSpace()
	for i := 0; i < 3; i++ {
		if _, err := src.Alloc(ir.HeapPrivate, 32); err != nil {
			t.Fatal(err)
		}
	}
	as.CopyHeapFrom(src, ir.HeapPrivate)
	if got, want := occOf(as, ir.HeapPrivate), occOf(src, ir.HeapPrivate); got != want || got.objs != 3 {
		t.Errorf("after CopyHeapFrom: %+v, want the source's %+v with 3 objects", got, want)
	}
}

// TestOccupancyCloneDoesNotInherit: a clone starts from its parent's
// occupancy, but its speculative allocations and frees stay its own.
func TestOccupancyCloneDoesNotInherit(t *testing.T) {
	as := NewAddressSpace()
	a, err := as.Alloc(ir.HeapPrivate, 40)
	if err != nil {
		t.Fatal(err)
	}
	want := occOf(as, ir.HeapPrivate)
	cl := as.Clone()
	if got := occOf(cl, ir.HeapPrivate); got != want {
		t.Fatalf("clone occupancy %+v, want the parent's %+v", got, want)
	}
	if _, err := cl.Alloc(ir.HeapPrivate, 4096); err != nil {
		t.Fatal(err)
	}
	if err := cl.Free(a); err != nil {
		t.Fatal(err)
	}
	if got := occOf(as, ir.HeapPrivate); got != want {
		t.Errorf("clone allocation leaked into the parent: %+v, want %+v", got, want)
	}
	if got := occOf(cl, ir.HeapPrivate); got.objs != 1 || got.ever != 40+4096 {
		t.Errorf("clone occupancy %+v, want 1 object and %d bytes ever allocated", got, 40+4096)
	}
}
