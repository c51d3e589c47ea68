package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestP2PSteadyStateZeroAlloc is the data-plane contract this package is
// built around: once the payload pool is warm, a Send/RecvInto pair
// allocates nothing. Self-send keeps the measurement on one goroutine, as
// AllocsPerRun requires.
func TestP2PSteadyStateZeroAlloc(t *testing.T) {
	w := newWorld(t, 1, Options{})
	c, _ := w.Comm(0)
	payload := make([]byte, 256)
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Send(0, 7, payload); err != nil {
			t.Fatal(err)
		}
		out, err := c.RecvInto(0, 7, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	})
	if allocs != 0 {
		t.Fatalf("Send/RecvInto steady state allocates %.1f per op, want 0", allocs)
	}
}

// TestFloatP2PSteadyStateZeroAlloc covers the typed path: SendFloats encodes
// straight into the pooled lease and recvFloatsInto decodes into the
// caller's vector.
func TestFloatP2PSteadyStateZeroAlloc(t *testing.T) {
	w := newWorld(t, 1, Options{})
	c, _ := w.Comm(0)
	v := make([]float64, 64)
	dst := make([]float64, 64)
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.SendFloats(0, 7, v); err != nil {
			t.Fatal(err)
		}
		if err := c.recvFloatsInto(0, 7, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SendFloats/recvFloatsInto steady state allocates %.1f per op, want 0", allocs)
	}
}

// TestCloseSendChurn hammers Close against concurrent senders. The old
// implementation closed the per-pair channels under a mutex, so a sender
// that had passed the closed check could panic with "send on closed
// channel"; the atomic-flag design must only ever return clean errors. Run
// under -race to also check the drain/deposit interleavings.
func TestCloseSendChurn(t *testing.T) {
	g := testGrid(t)
	for round := 0; round < 50; round++ {
		// Depth 1 keeps senders blocking quickly, maximizing the number of
		// goroutines parked inside deliver when Close lands.
		w, err := New(g, placeRanks(g, 8), Options{BufferDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for r := 0; r < w.Size(); r++ {
			c, _ := w.Comm(r)
			wg.Add(1)
			go func(c *Comm) {
				defer wg.Done()
				payload := []byte("churn")
				for i := 0; ; i++ {
					err := c.Send((c.Rank()+1)%c.Size(), 0, payload)
					if err != nil {
						if !errors.Is(err, ErrWorldClosed) {
							t.Errorf("sender got %v, want ErrWorldClosed", err)
						}
						return
					}
				}
			}(c)
		}
		w.Close()
		wg.Wait()
	}
}

// TestBcastIntoSteadyStateZeroAlloc: a non-root rank that broadcasts into a
// reused buffer allocates nothing once the pool and its queue are warm. In
// a 2-rank world the root's eager send returns at once, so both sides run
// on one goroutine, as AllocsPerRun requires. Hier is left out: it builds
// its per-root leader list on every call.
func TestBcastIntoSteadyStateZeroAlloc(t *testing.T) {
	for _, algo := range []Algorithm{Linear, Tree} {
		w := newWorld(t, 2, Options{Algorithm: algo})
		root, _ := w.Comm(0)
		c, _ := w.Comm(1)
		payload := make([]byte, 1024)
		var buf []byte
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := root.BcastInto(0, payload, nil); err != nil {
				t.Fatal(err)
			}
			out, err := c.BcastInto(0, nil, buf)
			if err != nil || len(out) != len(payload) {
				t.Fatalf("%v: BcastInto = %d bytes, %v", algo, len(out), err)
			}
			buf = out
		})
		if allocs != 0 {
			t.Fatalf("%v: BcastInto steady state allocates %.1f per op, want 0", algo, allocs)
		}
	}
}

// TestNewMakesQueuesLazily: New allocates per rank, not per rank pair; a
// pair's FIFO appears only when one side first uses it.
func TestNewMakesQueuesLazily(t *testing.T) {
	g := testGrid(t)
	const n = 64
	places := placeRanks(g, n)
	allocs := testing.AllocsPerRun(20, func() {
		w, err := New(g, places, Options{})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
	})
	if allocs > 2*n {
		t.Fatalf("New(%d ranks) makes %.0f allocations, want <= %d (no per-pair queues)", n, allocs, 2*n)
	}
}

// TestQueueFirstUseRace starts sender and receiver of a fresh pair at the
// same moment, so both race to make its FIFO; they must agree on one. A
// lost race would strand the message in a queue the receiver never reads,
// and the receive would hang until the world's deadline. Run under -race.
func TestQueueFirstUseRace(t *testing.T) {
	g := testGrid(t)
	for round := 0; round < 200; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		w, err := New(g, placeRanks(g, 2), Options{Ctx: ctx})
		if err != nil {
			t.Fatal(err)
		}
		runRanks(t, w, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 3, []byte{byte(round)})
			}
			b, err := c.Recv(0, 3)
			if err == nil && (len(b) != 1 || b[0] != byte(round)) {
				err = fmt.Errorf("round %d: got %v", round, b)
			}
			return err
		})
		w.Close()
		cancel()
	}
}
