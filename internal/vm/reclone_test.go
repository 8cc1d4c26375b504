package vm

import (
	"bytes"
	"testing"

	"privateer/internal/ir"
)

// buildParent allocates a few objects across two heaps and scribbles
// recognizable data into them, returning the space and the addresses.
func buildParent(t *testing.T) (*AddressSpace, []uint64) {
	t.Helper()
	as := NewAddressSpace()
	var addrs []uint64
	for i := 0; i < 8; i++ {
		h := ir.HeapUnrestricted
		if i%2 == 1 {
			h = ir.HeapPrivate
		}
		a, err := as.Alloc(h, 256)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		buf := make([]byte, 256)
		for j := range buf {
			buf[j] = byte(i*31 + j)
		}
		if err := as.WriteBytes(a, buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		addrs = append(addrs, a)
	}
	return as, addrs
}

// readAll snapshots the contents of every object.
func readAll(t *testing.T, as *AddressSpace, addrs []uint64) [][]byte {
	t.Helper()
	var out [][]byte
	for _, a := range addrs {
		buf := make([]byte, 256)
		if err := as.ReadBytes(a, buf); err != nil {
			t.Fatalf("read %#x: %v", a, err)
		}
		out = append(out, buf)
	}
	return out
}

// TestRecloneEquivalentToCloneSharingStats drives one space through a
// dirty-then-pooled-then-recloned cycle and checks it is indistinguishable
// from a fresh CloneSharingStats clone: same reads, same isolation, same
// shared Stats structure.
func TestRecloneEquivalentToCloneSharingStats(t *testing.T) {
	parent, addrs := buildParent(t)

	// A pooled space with history: clone an unrelated parent, mutate it
	// heavily, then release it back to "the pool".
	other, oaddrs := buildParent(t)
	pooled := other.CloneSharingStats()
	for _, a := range oaddrs {
		if err := pooled.WriteBytes(a, make([]byte, 256)); err != nil {
			t.Fatalf("dirty pooled: %v", err)
		}
	}
	if _, err := pooled.Alloc(ir.HeapUnrestricted, 4096); err != nil {
		t.Fatalf("dirty alloc: %v", err)
	}
	pooled.Release()

	// Re-target the pooled space at the real parent and compare against a
	// conventional clone.
	pooled.RecloneFrom(parent)
	fresh := parent.CloneSharingStats()

	want := readAll(t, parent, addrs)
	for i, got := range readAll(t, pooled, addrs) {
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("recloned space disagrees with parent at object %d", i)
		}
	}
	if pooled.Stats != parent.Stats {
		t.Fatalf("recloned space does not share the parent's Stats")
	}
	if fresh.Stats != parent.Stats {
		t.Fatalf("fresh clone does not share the parent's Stats")
	}

	// Allocator state must match a fresh clone: same brk, same live counts.
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		if pooled.Brk(h) != fresh.Brk(h) {
			t.Fatalf("heap %v brk: reclone %#x, fresh clone %#x", h, pooled.Brk(h), fresh.Brk(h))
		}
		if pooled.LiveObjects(h) != fresh.LiveObjects(h) {
			t.Fatalf("heap %v live objects: reclone %d, fresh clone %d",
				h, pooled.LiveObjects(h), fresh.LiveObjects(h))
		}
	}

	// COW isolation both ways: writes in the recloned space must not reach
	// the parent, and parent writes after the clone point must not reach it.
	if err := pooled.WriteBytes(addrs[0], bytes.Repeat([]byte{0xAA}, 256)); err != nil {
		t.Fatalf("write in reclone: %v", err)
	}
	buf := make([]byte, 256)
	if err := parent.ReadBytes(addrs[0], buf); err != nil {
		t.Fatalf("parent read: %v", err)
	}
	if !bytes.Equal(buf, want[0]) {
		t.Fatalf("write in recloned space leaked into the parent")
	}
	if err := parent.WriteBytes(addrs[1], bytes.Repeat([]byte{0xBB}, 256)); err != nil {
		t.Fatalf("parent write: %v", err)
	}
	if err := pooled.ReadBytes(addrs[1], buf); err != nil {
		t.Fatalf("reclone read: %v", err)
	}
	if !bytes.Equal(buf, want[1]) {
		t.Fatalf("parent write after reclone leaked into the recloned space")
	}

	// Allocations in the recloned space must not collide with the parent's.
	a1, err := pooled.Alloc(ir.HeapUnrestricted, 64)
	if err != nil {
		t.Fatalf("reclone alloc: %v", err)
	}
	a2, err := fresh.Alloc(ir.HeapUnrestricted, 64)
	if err != nil {
		t.Fatalf("fresh alloc: %v", err)
	}
	if a1 != a2 {
		t.Fatalf("reclone allocates %#x where a fresh clone allocates %#x", a1, a2)
	}
}

// TestReleaseDropsState checks that a released space holds no pages or
// allocator entries from its previous life, so a pool does not pin dead
// invocations' memory.
func TestReleaseDropsState(t *testing.T) {
	parent, addrs := buildParent(t)
	w := parent.CloneSharingStats()
	w.Release()
	if w.Stats == parent.Stats {
		t.Fatalf("released space still shares the parent's Stats")
	}
	for h := ir.HeapKind(0); h < ir.NumHeaps; h++ {
		if n := w.LiveObjects(h); n != 0 {
			t.Fatalf("released space reports %d live objects on heap %v", n, h)
		}
	}
	pages := 0
	w.DirtyPages(func(base uint64, data []byte) { pages++ })
	if pages != 0 {
		t.Fatalf("released space still holds %d dirty pages", pages)
	}
	// Reads demand-map zero pages, so the old contents being unreachable
	// shows up as zeros, not a fault.
	buf := make([]byte, 8)
	if err := w.ReadBytes(addrs[0], buf); err != nil {
		t.Fatalf("read in released space: %v", err)
	}
	if !bytes.Equal(buf, make([]byte, 8)) {
		t.Fatalf("released space still maps the old parent's pages")
	}
	if sz := w.ObjectSize(addrs[0]); sz != 0 {
		t.Fatalf("released space still tracks the old allocation (%d bytes)", sz)
	}
}
