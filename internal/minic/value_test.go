package minic

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestValueLayout pins the compact representation: a kind word, a payload
// word and one pointer word.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
}

func TestValueAccessors(t *testing.T) {
	if v := FloatValue(math.Copysign(0, -1)); !math.Signbit(v.F()) || v.F() != 0 {
		t.Fatalf("FloatValue(-0).F() = %v", v.F())
	}
	if v := StringValue("héllo"); v.S() != "héllo" || v.I != 6 {
		t.Fatalf("StringValue round trip: %q len %d", v.S(), v.I)
	}
	if v := StringValue(""); v.S() != "" {
		t.Fatalf("empty string = %q", v.S())
	}
	elems := []Value{IntValue(1), FloatValue(2.5)}
	a := ArrayValue(elems)
	a.Arr()[0] = IntValue(9)
	if elems[0].I != 9 || len(a.Arr()) != 2 {
		t.Fatal("ArrayValue does not alias its elements")
	}
	if len(ArrayValue(nil).Arr()) != 0 {
		t.Fatal("empty array has elements")
	}
	// A mismatched accessor yields the zero value, never a reinterpreted
	// pointer.
	if IntValue(5).S() != "" || IntValue(5).Arr() != nil || a.Mu() != nil ||
		a.Sem() != nil || a.Th() != nil || a.F() != 0 {
		t.Fatal("mismatched accessor returned a payload")
	}
}

// TestNegativeZeroConstant is the regression test for constant interning:
// the folded -0.0 used to intern onto 0.0 because floats compared with ==.
func TestNegativeZeroConstant(t *testing.T) {
	const src = `func main() { println(0.0); println(-0.0); }`
	for _, optimize := range []bool{false, true} {
		out, err := runUnit(compileMode(t, src, optimize), "")
		if err != nil || out != "0\n-0\n" {
			t.Fatalf("optimize=%v: out=%q err=%v, want \"0\\n-0\\n\"", optimize, out, err)
		}
	}
}

// TestRandomSequencePinned holds random() to the sequences seeds 0 and 1
// produced when every machine seeded its source up front: creating the
// source on first use must not change a single value.
func TestRandomSequencePinned(t *testing.T) {
	const src = `func main() {
	for (var i = 0; i < 4; i = i + 1) { print(random(1000000000), ""); }
	println(random(6));
}`
	u, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]string{
		0: "742165505 704393152 802995827 539197794 0\n",
		1: "947779410 82153551 666145821 235010051 5\n",
	}
	for seed, w := range want {
		var out strings.Builder
		m := NewMachine(u, MachineConfig{Out: &out, Seed: seed})
		if m.rng != nil {
			t.Fatal("NewMachine created the random source up front")
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if out.String() != w {
			t.Errorf("seed %d: random() printed %q, want %q", seed, out.String(), w)
		}
	}
}

// TestReduceArrayAllocs gates the copy-free array reduction: over NoMPI, a
// 1024-element reduce_sum allocates only the float vector and the result
// elements.
func TestReduceArrayAllocs(t *testing.T) {
	elems := make([]Value, 1024)
	for i := range elems {
		if i%2 == 0 {
			elems[i] = IntValue(int64(i))
		} else {
			elems[i] = FloatValue(float64(i) / 2)
		}
	}
	m := NewMachine(&Unit{}, MachineConfig{})
	args := []Value{ArrayValue(elems)}
	var res Value
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if res, err = reduceWith(m, "sum", args, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("reduce_sum over 1024 elements: %v allocs/op, want <= 2", allocs)
	}
	for i, e := range res.Arr() {
		if e != elems[i] {
			t.Fatalf("element %d: %v (%s), want %v (%s)", i, e, e.Kind, elems[i], elems[i].Kind)
		}
	}
}

// viewHooks is a one-rank world that accepts sends and checks every array
// payload a collective or send carries with check.
type viewHooks struct {
	NoMPI
	check func(where string, vec []float64)
}

func (h viewHooks) Send(_ int, data []byte) error {
	v, err := decodeValue(data)
	if err != nil {
		return err
	}
	vec := make([]float64, 0, v.I)
	for _, e := range v.Arr() {
		f, _ := e.numeric()
		vec = append(vec, f)
	}
	h.check("send", vec)
	return nil
}

func (h viewHooks) AllReduceFloats(_ string, v []float64) ([]float64, error) {
	h.check("reduce_sum", v)
	return v, nil
}

// TestArrayCollectivesConsistentView runs reduce_sum and send on an array
// while a sibling thread rewrites it pass after pass (pass k stores k into
// every element, front to back). Each payload must be one consistent view:
// a prefix of pass k followed by the rest of pass k-1. Reading elements
// outside the memory lock would show non-monotone mixes (and races under
// -race).
func TestArrayCollectivesConsistentView(t *testing.T) {
	const src = `
var a = array(256);
var stop = false;
func writer() {
	var k = 1;
	while (!stop) {
		for (var i = 0; i < len(a); i = i + 1) { a[i] = k; }
		k = k + 1;
	}
}
func main() {
	var t = spawn(writer);
	for (var j = 0; j < 200; j = j + 1) {
		reduce_sum(a);
		send(0, a);
		yield();
	}
	stop = true;
	join(t);
}`
	u, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 1)
	check := func(where string, vec []float64) {
		first, last := vec[0], vec[len(vec)-1]
		ok := first-last <= 1
		for i := 1; i < len(vec) && ok; i++ {
			ok = vec[i] <= vec[i-1]
		}
		if !ok {
			select {
			case errs <- fmt.Errorf("%s saw an inconsistent view: %v", where, vec):
			default:
			}
		}
	}
	m := NewMachine(u, MachineConfig{Hooks: viewHooks{check: check}})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
