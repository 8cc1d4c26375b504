package bench

import (
	"testing"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/vm"
)

// loadStoreModule builds a loop whose body is dominated by aligned 8-byte
// loads and stores into a 2-page malloc'd buffer (two memory accesses per
// iteration).
func loadStoreModule(n int64) *ir.Module {
	mod := ir.NewModule("loadstore")
	f := mod.NewFunc("main", ir.I64)
	bd := ir.NewBuilder(f)
	buf := bd.Local("buf")
	bd.St(bd.Malloc("buf", bd.I(8192)), buf)
	bd.For("i", bd.I(0), bd.I(n), func(iv *ir.Instr) {
		i := bd.Ld(iv)
		off := bd.Mul(bd.And(i, bd.I(1023)), bd.I(8))
		p := bd.Add(bd.LdP(buf), off)
		v := bd.Load(p, 8)
		bd.Store(bd.Add(v, i), p, 8)
	})
	bd.Ret(bd.Load(bd.LdP(buf), 8))
	ir.PromoteAllocas(f)
	f.Recompute()
	return mod
}

// BenchmarkExecCore isolates execution-core hot paths the paper-figure
// benchmarks do not: dispatch with one module reused across runs (the
// worker situation, per-function setup amortized away), the aligned
// load/store path, and the per-worker spawn sequence (COW clone of the
// master space, interpreter construction, global-layout adoption). Cold
// dispatch and COW cloning are covered by the root BenchmarkInterpreter and
// BenchmarkCOWClone.
func BenchmarkExecCore(b *testing.B) {
	b.Run("dispatch-warm", func(b *testing.B) {
		mod := dispatchModule(400000)
		var steps int64
		for i := 0; i < b.N; i++ {
			it := interp.New(mod, vm.NewAddressSpace())
			v, err := it.Run()
			if err != nil {
				b.Fatal(err)
			}
			obsSink += v
			steps += it.Steps
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/instr")
	})
	b.Run("loadstore", func(b *testing.B) {
		const n = 300000
		mod := loadStoreModule(n)
		for i := 0; i < b.N; i++ {
			v, err := interp.New(mod, vm.NewAddressSpace()).Run()
			if err != nil {
				b.Fatal(err)
			}
			obsSink += v
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*n*2), "ns/memop")
	})
	b.Run("worker-spawn", func(b *testing.B) {
		mod := loadStoreModule(64)
		master := interp.New(mod, vm.NewAddressSpace())
		if _, err := master.Run(); err != nil {
			b.Fatal(err)
		}
		// Touch a realistic number of pages so the clone is not trivially
		// empty.
		base := ir.HeapSystem.Base() + vm.PageSize
		for p := uint64(0); p < 256; p++ {
			if err := master.AS.Write(base+p*vm.PageSize, 8, p); err != nil {
				b.Fatal(err)
			}
		}
		layout := master.GlobalLayout()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it := interp.New(mod, master.AS.Clone())
			it.AdoptLayout(layout)
			obsSink += uint64(it.Steps)
		}
	})
}
