package vm

import (
	"sync"
	"testing"

	"privateer/internal/ir"
)

// TestConcurrentCloneIsolation pins the lazy-clone invariant concurrent
// speculation depends on (see the package comment): a parent address space
// and clones taken from it may be written concurrently, each by its own
// owner goroutine, without data races — shared page-table maps are never
// mutated, so every write materializes private structure first. Run under
// -race this is the concurrent-install safety proof; the value checks
// assert full isolation in both directions.
func TestConcurrentCloneIsolation(t *testing.T) {
	const (
		workers = 4
		pages   = 64
		rounds  = 50
	)
	base := ir.HeapPrivate.Base()
	parent := NewAddressSpace()
	for p := uint64(0); p < pages; p++ {
		if err := parent.Write(base+p*PageSize, 8, p); err != nil {
			t.Fatal(err)
		}
	}
	children := make([]*AddressSpace, workers)
	for w := range children {
		children[w] = parent.Clone()
	}

	var wg sync.WaitGroup
	// The parent writes while its children execute.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for p := uint64(0); p < pages; p++ {
				if err := parent.Write(base+p*PageSize, 8, 1_000_000+uint64(r)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	// The "workers": each writes its own pattern into its own clone.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := uint64(10_000 * (w + 1))
			for r := 0; r < rounds; r++ {
				for p := uint64(0); p < pages; p++ {
					addr := base + p*PageSize
					if err := children[w].Write(addr, 8, mine+uint64(r)); err != nil {
						t.Error(err)
						return
					}
					v, err := children[w].Read(addr, 8)
					if err != nil {
						t.Error(err)
						return
					}
					if v != mine+uint64(r) {
						t.Errorf("worker %d saw %d at page %d, want %d (isolation broken)",
							w, v, p, mine+uint64(r))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Parent sees only its own final installs.
	for p := uint64(0); p < pages; p++ {
		v, err := parent.Read(base+p*PageSize, 8)
		if err != nil {
			t.Fatal(err)
		}
		if v != 1_000_000+uint64(rounds-1) {
			t.Errorf("parent page %d holds %d, want %d", p, v, 1_000_000+uint64(rounds-1))
		}
	}
}
