package minic_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/labs"
	"repro/internal/minic"
)

// fuzzStepBudget bounds each fuzzed run. Optimized and unoptimized code
// execute different instruction counts, so a run that hits the budget in
// either mode proves nothing and is skipped.
const fuzzStepBudget = 5_000_000

// fuzzRunTimeout abandons a run whose threads block forever (a fuzzed
// program can deadlock on its own semaphores); such inputs are skipped.
const fuzzRunTimeout = 5 * time.Second

type fuzzResult struct {
	out string
	err error
}

// runFuzzed executes u to completion and reports false if it did not finish
// within fuzzRunTimeout.
func runFuzzed(u *minic.Unit) (fuzzResult, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), fuzzRunTimeout)
	defer cancel()
	done := make(chan fuzzResult, 1)
	go func() {
		var out bytes.Buffer
		m := minic.NewMachine(u, minic.MachineConfig{Out: &out, StepBudget: fuzzStepBudget, Seed: 1, Ctx: ctx})
		_, err := m.Run()
		done <- fuzzResult{out.String(), err}
	}()
	select {
	case r := <-done:
		return r, !errors.Is(r.err, minic.ErrCancelled)
	case <-ctx.Done():
		return fuzzResult{}, false
	}
}

func spawnsThreads(u *minic.Unit) bool {
	for _, f := range u.Funcs {
		for _, in := range f.Code {
			if in.Op == minic.OpSpawn {
				return true
			}
		}
	}
	return false
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzOptimizeEquivalence is the optimizer's differential check: compiling
// with and without DisableOptimize must give the same compile error, or the
// same stdout and the same run error. The seed corpus (the -0.0 constant,
// folding edge cases and every fixed lab source) runs as a unit test.
func FuzzOptimizeEquivalence(f *testing.F) {
	f.Add(`func main() { println(0.0); println(-0.0); }`)
	f.Add(`func main() { println(1 + 2 * 3 - -4, 7 / 2, 7.0 / 2, 7 % 3, "a" + "b", !true, 1 < 2.5); }`)
	f.Add(`func main() { println("before"); println(1 / 0); }`)
	f.Add(`func main() { var x = 2; println(x * 3 + x, -(0.0 * -1.0), 0.0 == -0.0); }`)
	f.Add(`func main() { var a = array(3); a[0] = 1; a[1] = 2.5; a[2] = true; println(a, len("abc") + 1); }`)
	for _, id := range labs.All() {
		f.Add(labs.MinicSource(id, true))
	}
	f.Fuzz(func(t *testing.T, src string) {
		on, errOn := minic.CompileSourceWithOptions(src, minic.CompileOptions{})
		off, errOff := minic.CompileSourceWithOptions(src, minic.CompileOptions{DisableOptimize: true})
		if errText(errOn) != errText(errOff) {
			t.Fatalf("compile errors differ:\n  optimized:   %v\n  unoptimized: %v", errOn, errOff)
		}
		if errOn != nil {
			return
		}
		ref, ok := runFuzzed(off)
		if !ok || errors.Is(ref.err, minic.ErrStepBudget) {
			return
		}
		if spawnsThreads(off) {
			// A racy program may print differently run to run in one mode;
			// compare only programs whose unoptimized output reproduces.
			again, ok := runFuzzed(off)
			if !ok || again.out != ref.out || errText(again.err) != errText(ref.err) {
				return
			}
		}
		got, ok := runFuzzed(on)
		if !ok || errors.Is(got.err, minic.ErrStepBudget) {
			return
		}
		if got.out != ref.out || errText(got.err) != errText(ref.err) {
			t.Fatalf("optimizer changed behaviour:\n  optimized:   out=%q err=%v\n  unoptimized: out=%q err=%v",
				got.out, got.err, ref.out, ref.err)
		}
	})
}
