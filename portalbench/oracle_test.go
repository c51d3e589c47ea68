package main

import (
	"strings"
	"testing"
	"time"
)

// TestOracleMatchesPortal runs every kind of generated program through a real
// portal and checks each output against the Go-computed oracle: the warm-up
// of each workload (the pipeline program on every account, all pooled lab
// solutions, the 16-rank MPI program) plus a stretch of fresh classroom
// submissions, interactive ones included.
func TestOracleMatchesPortal(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e, err := boot(w, 7, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			p := e.run(200 * time.Millisecond)
			res := newResult(p)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d incorrect=%v errors=%v", res.Correct, res.Failed, p.incorrect, p.errs)
			}
		})
	}
}

// corrupt changes the last digit of s, so the oracle no longer matches.
func corrupt(s string) string {
	i := strings.LastIndexAny(s, "0123456789")
	b := []byte(s)
	b[i] = '0' + (b[i]-'0'+1)%10
	return string(b)
}

// TestCorruptedExpectationIsCaught feeds real jobs a deliberately wrong
// expected output and requires the run to be marked incorrect.
func TestCorruptedExpectationIsCaught(t *testing.T) {
	for _, tc := range []struct {
		w    string
		prog Program
	}{
		{"pipeline", pipelineProgram(3)},
		{"classroom", labProgram(rngFor(3, "test", 0), kindBankInput, "interactive")},
		{"mpi-lab", mpiProgram(3)},
	} {
		t.Run(tc.w, func(t *testing.T) {
			w := workloadByName(tc.w)
			e, err := boot(w, 3, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			bad := tc.prog
			bad.Expect = corrupt(bad.Expect)
			path := "/corrupt.mc"
			p := newPhase()
			if !p.op("upload", time.Now(), e.accts[0].Upload(path, []byte(bad.Source))) {
				t.Fatal(p.errs)
			}
			e.runJob(p, e.accts[0], bad, path)
			if res := newResult(p); res.Correct || len(p.jobs) != 0 {
				t.Fatalf("corrupted expectation %q accepted", bad.Expect)
			}
			if len(p.errs) != 0 {
				t.Fatalf("a wrong output must count as incorrect, not as a failed operation: %v", p.errs)
			}
		})
	}
}

// TestVirtualTimeMustAgree marks a run incorrect when two mpi-lab jobs report
// different virtual makespans.
func TestVirtualTimeMustAgree(t *testing.T) {
	p := newPhase()
	p.jobs = []jobSample{{id: "a", virtualNS: 4000}, {id: "b", virtualNS: 4001}}
	if newResult(p).Correct {
		t.Fatal("differing virtual times accepted")
	}
}

func TestCheckOutputVirtualClock(t *testing.T) {
	p := Program{Name: "v", Expect: "[rank 0] checksum 5\n", VirtualClock: true}
	ns, err := checkOutput(p, "succeeded", "[rank 0] checksum 5\n[rank 0] time_ns 1625060\n")
	if err != nil || ns != 1625060 {
		t.Fatalf("got %d, %v", ns, err)
	}
	for _, out := range []string{
		"[rank 0] checksum 5\n",
		"[rank 0] checksum 5\n[rank 0] time_ns 1625060\nextra\n",
		"[rank 0] checksum 6\n[rank 0] time_ns 1625060\n",
	} {
		if _, err := checkOutput(p, "succeeded", out); err == nil {
			t.Errorf("accepted %q", out)
		}
	}
	if _, err := checkOutput(p, "failed", "[rank 0] checksum 5\n[rank 0] time_ns 1\n"); err == nil {
		t.Error("accepted a failed job")
	}
}

// TestGeneratorDeterministic: the same seed gives the same sources,
// constants and stdin lines; another seed gives other constants.
func TestGeneratorDeterministic(t *testing.T) {
	gen := func(seed int64) []Program {
		ps := []Program{pipelineProgram(seed), mpiProgram(seed)}
		for i := 0; i < 64; i++ {
			ps = append(ps, classroomProgram(seed, i))
		}
		return ps
	}
	a, b, c := gen(11), gen(11), gen(12)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("program %d differs between two generations of seed 11", i)
		}
		if a[i].Source == c[i].Source {
			same++
		}
	}
	if same > len(a)/4 {
		t.Fatalf("%d of %d programs identical across seeds 11 and 12", same, len(a))
	}
	interactive, fresh := 0, 0
	for _, p := range a[2:] {
		if p.Prompt != "" {
			interactive++
		}
		if strings.HasPrefix(p.Name, "attempt") {
			fresh++
		}
	}
	if interactive != 64/labKinds {
		t.Errorf("%d of 64 classroom programs interactive, want %d", interactive, 64/labKinds)
	}
	if fresh < 16 || fresh > 48 {
		t.Errorf("%d of 64 classroom programs fresh, want about half", fresh)
	}
}

func TestHistDelta(t *testing.T) {
	before := parseProm([]byte(`# TYPE x histogram
x_bucket{route="a",le="0.001"} 10
x_bucket{route="a",le="0.01"} 10
x_bucket{route="a",le="+Inf"} 10
`))
	after := parseProm([]byte(`x_bucket{route="a",le="0.001"} 10
x_bucket{route="a",le="0.01"} 20
x_bucket{route="a",le="+Inf"} 20
`))
	v, n := histDelta(before, after, `x{route="a"}`, 0.5)
	if n != 10 || v < 0.0054 || v > 0.0056 {
		t.Fatalf("delta p50 = %v over %d, want 0.0055 over 10", v, n)
	}
}
