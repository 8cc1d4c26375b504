package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"privateer/internal/progs"
)

// floatTol is the documented relative tolerance for FloatResult programs:
// parallel reduction merges reassociate floating-point sums, so their
// printed numbers and result may differ from the native reference in the
// last bits.
const floatTol = 1e-9

// reference is a program's native result for one input, the oracle every
// compiled, sequential, speculative and served result is compared with.
type reference struct {
	ret uint64
	out string
}

// referenceOf runs the native Go implementation of p on in.
func referenceOf(p *progs.Program, in progs.Input) reference {
	ret, out := p.Reference(in)
	return reference{ret: ret, out: out}
}

// checkResult reports how a result differs from the reference, or nil.
// Integer programs must match byte for byte; FloatResult programs compare
// numeric tokens and the result within floatTol.
func checkResult(p *progs.Program, want reference, ret uint64, out string) error {
	if !outputsMatch(p.FloatResult, out, want.out) {
		return fmt.Errorf("%s: output differs from the native reference (got %d bytes, want %d)",
			p.Name, len(out), len(want.out))
	}
	if !valuesMatch(p.FloatResult, ret, want.ret) {
		return fmt.Errorf("%s: result %#x, native reference %#x", p.Name, ret, want.ret)
	}
	return nil
}

func outputsMatch(float bool, got, want string) bool {
	if got == want {
		return true
	}
	if !float {
		return false
	}
	gt, wt := strings.Fields(got), strings.Fields(want)
	if len(gt) != len(wt) {
		return false
	}
	for i := range gt {
		if gt[i] == wt[i] {
			continue
		}
		g, errG := strconv.ParseFloat(gt[i], 64)
		w, errW := strconv.ParseFloat(wt[i], 64)
		if errG != nil || errW != nil || !closeEnough(g, w) {
			return false
		}
	}
	return true
}

func valuesMatch(float bool, got, want uint64) bool {
	if got == want {
		return true
	}
	return float && closeEnough(math.Float64frombits(got), math.Float64frombits(want))
}

func closeEnough(got, want float64) bool {
	return math.Abs(got-want) <= floatTol*(math.Abs(want)+1)
}
