package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/specrt"
	"privateer/internal/vm"
)

// joinWriterModule builds a checkpoint-heavy workload: every iteration
// stores its index into writesPerIter slots spread one page apart across a
// large private table (many dirty shadow pages per interval — the
// validation and install scans dominate the join) and prints one
// deferred-output line (the commit stream is non-trivial). Slot values
// depend only on the writing iteration, so last-writer-wins selection by
// timestamp reproduces the sequential final state exactly.
func joinWriterModule(n, pages, writesPerIter int64) *ir.Module {
	m := ir.NewModule("join-writer")
	table := m.NewGlobal("table", pages*vm.PageSize)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	stride := pages / writesPerIter
	if stride < 1 {
		stride = 1
	}
	b.For("i", b.I(0), b.I(n), func(iv *ir.Instr) {
		i := b.Ld(iv)
		b.For("j", b.I(0), b.I(writesPerIter), func(jv *ir.Instr) {
			slot := b.SRem(b.Add(i, b.Mul(b.Ld(jv), b.I(stride))), b.I(pages))
			addr := b.Add(b.Global(table), b.Mul(slot, b.I(vm.PageSize)))
			b.Store(i, addr, 8)
		})
		b.Print("i=%d\n", i)
	})
	acc := b.Local("acc")
	b.St(b.I(0), acc)
	b.For("p", b.I(0), b.I(pages), func(pv *ir.Instr) {
		v := b.Load(b.Add(b.Global(table), b.Mul(b.Ld(pv), b.I(vm.PageSize))), 8)
		b.St(b.Add(b.Mul(b.Ld(acc), b.I(31)), v), acc)
	})
	b.Ret(b.Ld(acc))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m
}

// Workload shape: 8 intervals of 48 iterations, 8 page-spread writes per
// iteration over a 32-page table.
const (
	joinIters   = 384
	joinPages   = 32
	joinWrites  = 8
	joinPeriod  = 48
	joinWorkers = 8
)

// prepareJoinWriter compiles the workload and its sequential reference.
func prepareJoinWriter() (*core.Parallelized, uint64, string, error) {
	mod := joinWriterModule(joinIters, joinPages, joinWrites)
	seqIt := interp.New(joinWriterModule(joinIters, joinPages, joinWrites), vm.NewAddressSpace())
	var seqOut strings.Builder
	seqIt.Hooks.OnPrint = func(in *ir.Instr, text string) bool {
		seqOut.WriteString(text)
		return true
	}
	seqRet, err := seqIt.Run()
	if err != nil {
		return nil, 0, "", fmt.Errorf("join writer sequential: %w", err)
	}
	par, err := core.Parallelize(mod, core.Options{})
	if err != nil {
		return nil, 0, "", fmt.Errorf("join writer parallelize: %w", err)
	}
	return par, seqRet, seqOut.String(), nil
}

// TestJoinDeterminismAcrossGOMAXPROCS: the span join's observable behavior
// — result, committed output, and the simulated-time accounting — must not
// depend on how many hardware threads the host schedules the span onto.
// Misspeculation-free by construction, so the simulated accounting is
// exactly reproducible.
func TestJoinDeterminismAcrossGOMAXPROCS(t *testing.T) {
	par, seqRet, seqOut, err := prepareJoinWriter()
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	type observed struct {
		ret uint64
		out string
		sim specrt.SimStats
	}
	var runs []observed
	for _, gmp := range []int{1, 4} {
		runtime.GOMAXPROCS(gmp)
		rt, ret, err := core.Run(par, specrt.Config{
			Workers: joinWorkers, CheckpointPeriod: joinPeriod,
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", gmp, err)
		}
		if rt.Stats.Misspecs != 0 {
			t.Fatalf("GOMAXPROCS=%d: unexpected misspeculation", gmp)
		}
		runs = append(runs, observed{ret: ret, out: rt.Output(), sim: rt.Sim})
	}
	for i, r := range runs {
		if r.ret != seqRet {
			t.Errorf("run %d: result %d, want sequential %d", i, r.ret, seqRet)
		}
		if r.out != seqOut {
			t.Errorf("run %d: output diverged from sequential reference", i)
		}
	}
	if runs[0].sim != runs[1].sim {
		t.Errorf("simulated accounting depends on GOMAXPROCS:\n 1: %+v\n 4: %+v",
			runs[0].sim, runs[1].sim)
	}
}
