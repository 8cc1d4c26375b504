package specrt

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"privateer/internal/ir"
	"privateer/internal/vm"
)

// TestCrossValidateShardedEquivalence: the sharded chain validation must
// report the same first-violating checkpoint as the serial walk for every
// shard count, including chains where different pages violate at different
// intervals (the answer is the minimum over pages).
func TestCrossValidateShardedEquivalence(t *testing.T) {
	pageBase := func(i int) uint64 {
		return ir.ShadowAddr(ir.HeapPrivate.Base()+uint64(i+1)*vm.PageSize) &^ uint64(vm.PageSize-1)
	}
	// A chain of 6 intervals over 32 pages: page p is written in interval
	// p%3 and read live-in in interval p%3+d (violating when d>0). Page 7
	// violates earliest (interval 1); most pages are clean.
	build := func() *checkpoint {
		var chain []*checkpoint
		var prev *checkpoint
		for id := int64(0); id < 6; id++ {
			cp := newCheckpoint(id, id*4, (id+1)*4, prev)
			chain = append(chain, cp)
			prev = cp
		}
		for p := 0; p < 32; p++ {
			base := pageBase(p)
			w := int64(p % 3)
			chain[w].ownPage(chain[w].shadow, base)[p] = MetaTSBase
			if p == 7 {
				chain[w+1].ownPage(chain[w+1].shadow, base)[p] = MetaReadLiveIn
			} else if p%5 == 0 {
				chain[w+2].ownPage(chain[w+2].shadow, base)[p] = MetaReadLiveIn
			} else {
				chain[w+1].ownPage(chain[w+1].shadow, base)[p+1] = MetaReadLiveIn // disjoint byte: clean
			}
		}
		return chain[5]
	}
	want, wantAddr := build().crossValidateAddr()
	if want < 0 {
		t.Fatal("test chain should violate")
	}
	for _, shards := range []int{1, 2, 3, 8, 64} {
		if got, addr := build().crossValidateShardedAddr(shards); got != want || addr != wantAddr {
			t.Errorf("shards=%d: first violation %d at %#x, want %d at %#x", shards, got, addr, want, wantAddr)
		}
	}
	// A clean chain must stay clean at every shard count.
	clean := func() *checkpoint {
		cp0 := newCheckpoint(0, 0, 4, nil)
		cp1 := newCheckpoint(1, 4, 8, cp0)
		for p := 0; p < 32; p++ {
			cp0.ownPage(cp0.shadow, pageBase(p))[1] = MetaTSBase
			cp1.ownPage(cp1.shadow, pageBase(p))[2] = MetaReadLiveIn
		}
		return cp1
	}
	for _, shards := range []int{1, 2, 8} {
		if got, _ := clean().crossValidateShardedAddr(shards); got != -1 {
			t.Errorf("clean chain, shards=%d: flagged %d", shards, got)
		}
	}
}

// TestCrossValidateAddrDeterministic: when two pages violate in the same
// checkpoint, the serial and sharded walks must both report the lower
// faulting address, every time — the address reaches misspeculation
// reports, -why-misspec and /debug/flight, so it may not depend on map
// iteration order or goroutine scheduling.
func TestCrossValidateAddrDeterministic(t *testing.T) {
	privPage := func(i int) uint64 { return ir.HeapPrivate.Base() + uint64(i+1)*vm.PageSize }
	// Interval 0 writes byte 3 of pages 0..15; interval 1 reads byte 3 of
	// pages 5 and 11 as live-in (two violations) and a disjoint byte of
	// every other page (clean).
	build := func() *checkpoint {
		cp0 := newCheckpoint(0, 0, 4, nil)
		cp1 := newCheckpoint(1, 4, 8, cp0)
		for p := 0; p < 16; p++ {
			base := ir.ShadowAddr(privPage(p))
			cp0.ownPage(cp0.shadow, base)[3] = MetaTSBase
			if p == 5 || p == 11 {
				cp1.ownPage(cp1.shadow, base)[3] = MetaReadLiveIn
			} else {
				cp1.ownPage(cp1.shadow, base)[4] = MetaReadLiveIn
			}
		}
		return cp1
	}
	want := privPage(5) + 3
	for i := 0; i < 50; i++ {
		if id, addr := build().crossValidateAddr(); id != 1 || addr != want {
			t.Fatalf("serial run %d: violation %d at %#x, want 1 at %#x", i, id, addr, want)
		}
		if id, addr := build().crossValidateShardedAddr(4); id != 1 || addr != want {
			t.Fatalf("sharded run %d: violation %d at %#x, want 1 at %#x", i, id, addr, want)
		}
	}
}

// TestShardedMergeEquivalence: addWorkerState must produce the same merged
// checkpoint (data, shadow, verdict) whether the page scan is serial or
// sharded.
func TestShardedMergeEquivalence(t *testing.T) {
	mkWorker := func() *vm.AddressSpace {
		ws := vm.NewAddressSpace()
		for p := 0; p < 16; p++ {
			addr := ir.HeapPrivate.Base() + uint64(p)*vm.PageSize + uint64(p)
			if err := ws.Write(addr, 1, uint64(p+1)); err != nil {
				t.Fatal(err)
			}
			if err := ws.Write(ir.ShadowAddr(addr), 1, uint64(MetaTSBase)); err != nil {
				t.Fatal(err)
			}
		}
		return ws
	}
	merge := func(shards int) *checkpoint {
		cp := newCheckpoint(0, 0, 4, nil)
		ok, scanned, contributed := cp.addWorkerState(0, mkWorker(), nil, nil, nil, shards)
		if !ok || scanned == 0 || contributed != 1 {
			t.Fatalf("shards=%d: ok=%v scanned=%d contributed=%d", shards, ok, scanned, contributed)
		}
		return cp
	}
	ref := merge(1)
	for _, shards := range []int{2, 4, 8} {
		got := merge(shards)
		if len(got.data) != len(ref.data) || len(got.shadow) != len(ref.shadow) {
			t.Fatalf("shards=%d: page counts diverged", shards)
		}
		for base, pg := range ref.data {
			if fmt.Sprint(got.data[base]) != fmt.Sprint(pg) {
				t.Errorf("shards=%d: data page %#x diverged", shards, base)
			}
		}
		for base, pg := range ref.shadow {
			if fmt.Sprint(got.shadow[base]) != fmt.Sprint(pg) {
				t.Errorf("shards=%d: shadow page %#x diverged", shards, base)
			}
		}
	}
}

// TestCommitOutputRace hammers the committed-output stream from concurrent
// goroutines — the commitOne/writeOut paths every output write goes
// through. Run under -race this pins the outMu locking discipline; the
// final stream must contain every record exactly once.
func TestCommitOutputRace(t *testing.T) {
	rt := New(ir.NewModule("empty"), Config{})
	const perG, gs = 200, 4
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if g%2 == 0 {
					cp := newCheckpoint(int64(i), 0, 1, nil)
					cp.io = append(cp.io, ioRec{iter: int64(i), text: "c\n"})
					rt.commitOne(cp)
				} else {
					rt.writeOut("w\n")
				}
			}
		}(g)
	}
	wg.Wait()
	out := rt.Output()
	if got, want := strings.Count(out, "\n"), perG*gs; got != want {
		t.Errorf("committed %d records, want %d", got, want)
	}
}
