package vm

import (
	"testing"

	"privateer/internal/ir"
)

func TestStatsCounters(t *testing.T) {
	as := NewAddressSpace()
	a, _ := as.Alloc(ir.HeapPrivate, 64)
	if err := as.Write(a, 8, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Read(a, 8); err != nil {
		t.Fatal(err)
	}
	if as.Stats.PagesMapped == 0 {
		t.Error("no pages mapped")
	}
}

func TestProtStringsAndQueries(t *testing.T) {
	if ProtNone.String() != "---" || ProtRead.String() != "r--" || ProtReadWrite.String() != "rw-" {
		t.Error("prot strings wrong")
	}
	as := NewAddressSpace()
	as.SetProt(ir.HeapReadOnly, ProtRead)
	if as.ProtOf(ir.HeapReadOnly) != ProtRead {
		t.Error("ProtOf mismatch")
	}
}

func TestBrkAndAllocatedBytes(t *testing.T) {
	as := NewAddressSpace()
	b0 := as.Brk(ir.HeapShortLived)
	if _, err := as.Alloc(ir.HeapShortLived, 100); err != nil {
		t.Fatal(err)
	}
	if as.Brk(ir.HeapShortLived) <= b0 {
		t.Error("brk did not advance")
	}
	if as.AllocatedBytes(ir.HeapShortLived) != 100 {
		t.Errorf("allocated bytes = %d", as.AllocatedBytes(ir.HeapShortLived))
	}
	if as.ObjectSize(b0) == 0 {
		t.Error("object size of live allocation is zero")
	}
}

func TestFaultError(t *testing.T) {
	as := NewAddressSpace()
	as.SetProt(ir.HeapReadOnly, ProtRead)
	addr := ir.HeapReadOnly.Base() + PageSize
	err := as.Write(addr, 8, 1)
	if err == nil {
		t.Fatal("expected fault")
	}
	f, ok := err.(*Fault)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if !f.Write || f.Addr != addr {
		t.Errorf("fault fields: %+v", f)
	}
	if msg := f.Error(); msg == "" {
		t.Error("empty fault message")
	}
}

func TestDirtyPagesOnlyPrivatePages(t *testing.T) {
	parent := NewAddressSpace()
	a, _ := parent.Alloc(ir.HeapPrivate, 3*PageSize)
	for p := uint64(0); p < 3; p++ {
		if err := parent.Write(a+p*PageSize, 8, p); err != nil {
			t.Fatal(err)
		}
	}
	child := parent.Clone()
	// Untouched child: no dirty pages.
	count := 0
	child.DirtyPages(func(base uint64, data []byte) { count++ })
	if count != 0 {
		t.Errorf("fresh clone has %d dirty pages", count)
	}
	if err := child.Write(a, 8, 99); err != nil {
		t.Fatal(err)
	}
	count = 0
	child.DirtyPages(func(base uint64, data []byte) { count++ })
	if count != 1 {
		t.Errorf("dirty pages = %d, want 1", count)
	}
}

func TestPageDataVisibility(t *testing.T) {
	as := NewAddressSpace()
	addr := ir.HeapPrivate.Base() + 10*PageSize
	if _, ok := as.PageData(addr); ok {
		t.Error("untouched page reported present")
	}
	if err := as.Write(addr, 8, 5); err != nil {
		t.Fatal(err)
	}
	data, ok := as.PageData(addr)
	if !ok || data[0] != 5 {
		t.Errorf("page data = %v, %v", ok, data[:8])
	}
}

func TestZeroSizeAlloc(t *testing.T) {
	as := NewAddressSpace()
	a, err := as.Alloc(ir.HeapPrivate, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := as.Alloc(ir.HeapPrivate, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("zero-size allocations alias")
	}
}
