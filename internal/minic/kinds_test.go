package minic_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/minic"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// commHooks connects a VM rank to an mpi.Comm, like the scheduler's adapter.
type commHooks struct{ c *mpi.Comm }

func (h commHooks) Rank() int                             { return h.c.Rank() }
func (h commHooks) Size() int                             { return h.c.Size() }
func (h commHooks) Send(dst int, data []byte) error       { return h.c.Send(dst, 0, data) }
func (h commHooks) Recv(src int) ([]byte, error)          { return h.c.Recv(src, 0) }
func (h commHooks) Barrier() error                        { return h.c.Barrier() }
func (h commHooks) Bcast(r int, d []byte) ([]byte, error) { return h.c.Bcast(r, d) }
func (h commHooks) ElapsedNS() int64                      { return h.c.Elapsed().Nanoseconds() }
func (h commHooks) Tick(ns int64)                         { h.c.Tick(time.Duration(ns)) }

func (h commHooks) AllReduce(op string, v float64) (float64, error) {
	return h.c.AllReduce(mpiOp(op), v)
}

func (h commHooks) AllReduceFloats(op string, v []float64) ([]float64, error) {
	return h.c.AllReduceFloats(mpiOp(op), v)
}

func (h commHooks) GatherFloats(root int, v []float64) ([]float64, error) {
	return h.c.GatherFloats(root, v)
}

func (h commHooks) ScatterFloats(root int, v []float64) ([]float64, error) {
	return h.c.ScatterFloats(root, v)
}

func mpiOp(op string) mpi.Op {
	switch op {
	case "max":
		return mpi.OpMax
	case "min":
		return mpi.OpMin
	}
	return mpi.OpSum
}

// runRanks executes src on every rank of a world using algo, with ranks
// spread round-robin over two segments so hier has two groups, and returns
// each rank's stdout.
func runRanks(t *testing.T, src string, ranks int, algo mpi.Algorithm) []string {
	t.Helper()
	got, errs := runRanksErr(t, src, ranks, algo)
	for r := range got {
		if errs[r] != nil {
			t.Fatalf("%v rank %d: %v", algo, r, errs[r])
		}
	}
	return got
}

// runRanksErr is runRanks that returns each rank's run error instead of
// failing on it. One rank's error does not cancel the others, so each
// reports its own; the world's deadline ends peers left waiting on it.
func runRanksErr(t *testing.T, src string, ranks int, algo mpi.Algorithm) ([]string, []error) {
	t.Helper()
	u, err := minic.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := topology.New(2, ranks, topology.Params{
		IntraNode: time.Microsecond, IntraSegment: 10 * time.Microsecond,
		InterSegment: 100 * time.Microsecond, BytesPerSecond: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	places := make([]topology.NodeID, ranks)
	for r := range places {
		places[r] = topology.NodeID{Segment: r % 2, Index: r / 2}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	world, err := mpi.New(grid, places, mpi.Options{Algorithm: algo, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	outs := make([]strings.Builder, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		c, err := world.Comm(r)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m := minic.NewMachine(u, minic.MachineConfig{Out: &outs[r], Hooks: commHooks{c}, Ctx: ctx})
			_, errs[r] = m.Run()
		}(r)
	}
	wg.Wait()
	got := make([]string, ranks)
	for r := range got {
		got[r] = outs[r].String()
	}
	return got, errs
}

// kindsSrc moves mixed int/float/bool arrays through every message-passing
// builtin and prints each result with an operation that exposes its kind:
// x / 2 truncates an int and not a float, and a bool prints as true/false
// where an int would print 0 or 1.
const kindsSrc = `
func halves(a) {
	for (var i = 0; i < len(a); i = i + 1) { print("", a[i] / 2); }
	println();
}
func mixed(a) {
	println(a[0] / 2, a[1] / 2, a[2], a[3] / 2);
}
func main() {
	var r = rank();
	var n = size();
	var a = array(4);
	a[0] = 7 + r; a[1] = 2.5; a[2] = r == 0; a[3] = -3;
	mixed(bcast(0, a));
	send((r + 1) % n, a);
	mixed(recv((r + n - 1) % n));
	send((r + 1) % n, r == 1);
	println(recv((r + n - 1) % n));
	var m = array(3);
	m[0] = r + 1; m[1] = 0.75; m[2] = 0 - r;
	halves(reduce_sum(m));
	var big = array(n * 2);
	for (var i = 0; i < n * 2; i = i + 1) { big[i] = i + 1; }
	big[1] = 1.5;
	var chunk = scatter(0, big);
	halves(chunk);
	var all = gather(0, chunk);
	print(len(all));
	halves(all);
}`

// TestArrayKindsThroughCollectives pins each builtin's result kinds under
// every collective algorithm: bcast and send/recv keep each element's kind,
// reduce_sum keeps int elements int and float elements float, scatter and
// gather deliver floats.
func TestArrayKindsThroughCollectives(t *testing.T) {
	// Per rank; every algorithm must print exactly this.
	want := []string{
		"3 1.25 true -1\n5 1.25 false -1\nfalse\n 5 1.5 -3\n 0.5 0.75\n8 0.5 0.75 1.5 2 2.5 3 3.5 4\n",
		"3 1.25 true -1\n3 1.25 true -1\nfalse\n 5 1.5 -3\n 1.5 2\n0\n",
		"3 1.25 true -1\n4 1.25 false -1\ntrue\n 5 1.5 -3\n 2.5 3\n0\n",
		"3 1.25 true -1\n4 1.25 false -1\nfalse\n 5 1.5 -3\n 3.5 4\n0\n",
	}
	for _, algo := range []mpi.Algorithm{mpi.Linear, mpi.Tree, mpi.Hier} {
		got := runRanks(t, kindsSrc, 4, algo)
		for r := range got {
			if got[r] != want[r] {
				t.Errorf("%v rank %d:\n got %q\nwant %q", algo, r, got[r], want[r])
			}
		}
	}
}

func TestReduceRejectsBoolElement(t *testing.T) {
	u, err := minic.CompileSource(`func main() { var a = array(2); a[1] = true; reduce_sum(a); }`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = minic.NewMachine(u, minic.MachineConfig{}).Run()
	if err == nil || !strings.Contains(err.Error(), "got bool") {
		t.Fatalf("reduce_sum over a bool element: err = %v", err)
	}
}

// TestBcastUnsendableOnEveryRank: only the root's bcast payload travels, but
// every rank still reports an unsendable argument, with the root's message.
func TestBcastUnsendableOnEveryRank(t *testing.T) {
	const src = `func main() { var a = array(2); a[1] = "text"; bcast(0, a); }`
	for _, algo := range []mpi.Algorithm{mpi.Linear, mpi.Tree, mpi.Hier} {
		_, errs := runRanksErr(t, src, 4, algo)
		for r, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "cannot send an array containing a string") {
				t.Errorf("%v rank %d: err = %v", algo, r, err)
			}
		}
	}
}
