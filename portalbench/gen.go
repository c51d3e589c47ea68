package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
)

// A Program is one generated submission together with its oracle: the exact
// stdout a correct portal must deliver for it. Every expected value is
// computed here, in Go, from the generator's constants; no program is ever
// run to learn its output.
type Program struct {
	Name   string // file stem, unique per distinct source
	Source string
	Ranks  int
	// Prompt is what the program prints before it blocks on readline();
	// Answer is the line the client types back. Both are empty for
	// non-interactive programs.
	Prompt string
	Answer string
	// Expect is the complete expected stdout, byte for byte. For a program
	// with VirtualClock set it is the expected stdout up to the final
	// "time_ns" line, whose value is the simulated makespan: the oracle
	// cannot know its digits, so the checker demands that it parse and be
	// identical on every job of the run instead.
	Expect       string
	VirtualClock bool
}

// rngFor derives an independent, reproducible stream from the run seed, a
// stream name and an index, so the program for a given (seed, index) does not
// depend on how concurrent clients interleave.
func rngFor(seed int64, stream string, index int) *rand.Rand {
	h := uint64(14695981039346656037)
	for _, b := range []byte(stream) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	h ^= uint64(seed) * 0x9E3779B97F4A7C15
	h ^= uint64(index) * 0xC2B2AE3D27D4EB4F
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// between returns a uniform int in [lo, hi].
func between(r *rand.Rand, lo, hi int) int { return lo + r.Intn(hi-lo+1) }

// --- pipeline ------------------------------------------------------------------

// pipelineIters is the loop length of the pipeline program: long enough that
// the VM shows up in the trace, short enough that HTTP, dispatch and stream
// delivery dominate a job.
const pipelineIters = 40000

// pipelineProgram is the one compute program every pipeline job runs.
func pipelineProgram(seed int64) Program {
	r := rngFor(seed, "pipeline", 0)
	a, b := between(r, 3, 99), between(r, 1, 999)
	src := fmt.Sprintf(`func main() {
	var total = 0;
	for (var i = 0; i < %d; i = i + 1) { total = total + i * %d + %d; }
	println(rank(), total);
}
`, pipelineIters, a, b)
	sumI := int64(pipelineIters) * (pipelineIters - 1) / 2
	want := int64(a)*sumI + int64(b)*pipelineIters
	return Program{
		Name:   "pipeline",
		Source: src,
		Ranks:  1,
		Expect: fmt.Sprintf("0 %d\n", want),
	}
}

// --- classroom -----------------------------------------------------------------

// Classroom mix. About half of all submissions are new sources (a student's
// fresh attempt, a compile-cache miss); the rest resubmit one of poolSize
// common lab solutions that warm-up has already compiled. One lab in four
// is interactive and is answered through SendInput.
const (
	freshShare = 0.5
	poolSize   = 8
	labKinds   = 4
)

// Lab kinds, modelled on the fixed lab sources: Lab 1's mutex counter,
// Lab 5's bank account (plain and interactive) and PA 3's bounded buffer.
const (
	kindCounter = iota
	kindBank
	kindBankInput
	kindBuffer
)

// classroomProgram is the submission of classroom cycle i. The lab kind
// cycles with i, so every run has the same mix of kinds whatever the seed;
// the seed picks fresh or pooled and every constant.
func classroomProgram(seed int64, i int) Program {
	r := rngFor(seed, "classroom", i)
	kind := i % labKinds
	if r.Float64() >= freshShare {
		return poolProgram(seed, kind+labKinds*r.Intn(poolSize/labKinds))
	}
	return labProgram(r, kind, fmt.Sprintf("attempt%06d", i))
}

// poolProgram is common lab solution k, of kind k mod labKinds. Its source is
// identical on every use, so only its first compile misses the artifact
// cache.
func poolProgram(seed int64, k int) Program {
	return labProgram(rngFor(seed, "pool", k), k%labKinds, fmt.Sprintf("pool%d", k))
}

// labProgram generates one lab of the given kind. Loop lengths vary only a
// little, so that a job's cost hardly depends on the seed; the other
// constants, and so every expected output, vary widely.
func labProgram(r *rand.Rand, kind int, name string) Program {
	header := "// " + name + "\n"
	switch kind {
	case kindCounter:
		start, step := between(r, 1000, 99999), between(r, 1, 9)
		n1, n2 := between(r, 6000, 6300), between(r, 6000, 6300)
		return Program{
			Name: name + "-counter",
			Source: header + fmt.Sprintf(`var counter = %d;
var m = mutex();
func worker(n) {
	for (var i = 0; i < n; i = i + 1) {
		lock(m);
		counter = counter + %d;
		unlock(m);
	}
}
func main() {
	var t1 = spawn(worker, %d);
	var t2 = spawn(worker, %d);
	join(t1);
	join(t2);
	println("RESULT counter", counter);
}
`, start, step, n1, n2),
			Ranks:  1,
			Expect: fmt.Sprintf("RESULT counter %d\n", start+step*(n1+n2)),
		}
	case kindBank, kindBankInput:
		interactive := kind == kindBankInput
		start := between(r, 100000, 999999)
		w, d := between(r, 6000, 6300), between(r, 6000, 6300)
		p := Program{Name: name + "-bank", Ranks: 1}
		readExtra := ""
		want := start - w + d
		if interactive {
			extra := between(r, 1, 9999)
			p.Name = name + "-bankinput"
			p.Prompt = "deposit? "
			p.Answer = strconv.Itoa(extra)
			readExtra = "\tprint(\"deposit? \");\n\tbalance = balance + atoi(readline());\n"
			want += extra
		}
		p.Source = header + fmt.Sprintf(`var balance = %d;
var m = mutex();
func withdraw(n) {
	for (var i = 0; i < n; i = i + 1) {
		lock(m);
		balance = balance - 1;
		unlock(m);
	}
}
func deposit(n) {
	for (var i = 0; i < n; i = i + 1) {
		lock(m);
		balance = balance + 1;
		unlock(m);
	}
}
func main() {
	var tw = spawn(withdraw, %d);
	var td = spawn(deposit, %d);
	join(tw);
	join(td);
%s	println("RESULT balance", balance);
}
`, start, w, d, readExtra)
		p.Expect = fmt.Sprintf("%sRESULT balance %d\n", p.Prompt, want)
		return p
	default: // kindBuffer
		slots, k := between(r, 4, 6), between(r, 4000, 4300)
		return Program{
			Name: name + "-buffer",
			Source: header + fmt.Sprintf(`var buf = array(%[1]d);
var inpos = 0;
var outpos = 0;
var sum = 0;
var bad = 0;
var m = mutex();
var slots = sem(%[1]d);
var fill = sem(0);
func producer() {
	for (var v = 1; v <= %[2]d; v = v + 1) {
		sem_wait(slots);
		lock(m);
		buf[inpos] = v;
		inpos = (inpos + 1) %% %[1]d;
		unlock(m);
		sem_signal(fill);
	}
}
func consumer() {
	for (var i = 0; i < %[2]d; i = i + 1) {
		sem_wait(fill);
		lock(m);
		var v = buf[outpos];
		outpos = (outpos + 1) %% %[1]d;
		unlock(m);
		sem_signal(slots);
		sum = sum + v;
		if (v != i + 1) { bad = bad + 1; }
	}
}
func main() {
	var p = spawn(producer);
	var c = spawn(consumer);
	join(p);
	join(c);
	println("RESULT sum", sum, "bad", bad);
}
`, slots, k),
			Ranks:  1,
			Expect: fmt.Sprintf("RESULT sum %d bad 0\n", k*(k+1)/2),
		}
	}
}

// --- mpi-lab -------------------------------------------------------------------

// The mpi-lab program: mpiRanks ranks (limits.max_nodes_per_job) run
// mpiRounds rounds of element-wise reduce_sum, bcast, scatter, a ring of
// point-to-point messages and gather over mpiLen-element arrays.
const (
	mpiRanks  = 16
	mpiRounds = 4
	mpiLen    = 1024
	mpiMod    = 1000
)

func mpiProgram(seed int64) Program {
	r := rngFor(seed, "mpi-lab", 0)
	a, b, c := between(r, 3, 97), between(r, 1, 50), between(r, 1, 20)
	src := fmt.Sprintf(`func main() {
	var n = %d;
	var r = rank();
	var p = size();
	var a = array(n);
	var chk = 0;
	for (var round = 0; round < %d; round = round + 1) {
		for (var i = 0; i < n; i = i + 1) { a[i] = (i * %d + r * %d + round * %d) %% %d; }
		var s = reduce_sum(a);
		var b = bcast(0, s);
		var part = scatter(0, b);
		send((r + 1) %% p, part);
		var got = recv((r + p - 1) %% p);
		var g = gather(0, got);
		if (r == 0) {
			var t = 0;
			for (var i = 0; i < len(g); i = i + 1) { t = t + int(g[i]) * (i %% 7 + 1); }
			chk = chk + t;
			println("round", round, t);
		}
	}
	if (r == 0) {
		println("checksum", chk);
		println("time_ns", time_ns());
	}
}
`, mpiLen, mpiRounds, a, b, c, mpiMod)

	var out strings.Builder
	chunk := mpiLen / mpiRanks
	var chk int64
	s := make([]int64, mpiLen)
	for round := 0; round < mpiRounds; round++ {
		// reduce_sum: element-wise sum over every rank's array.
		for i := range s {
			s[i] = 0
			for rk := 0; rk < mpiRanks; rk++ {
				s[i] += int64((i*a + rk*b + round*c) % mpiMod)
			}
		}
		// bcast hands every rank s; scatter gives rank q chunk q; the ring
		// moves chunk q to rank q+1; gather concatenates what each rank
		// received, so slot q of the result holds chunk q-1.
		var t int64
		for q := 0; q < mpiRanks; q++ {
			from := (q - 1 + mpiRanks) % mpiRanks
			for j := 0; j < chunk; j++ {
				k := q*chunk + j
				t += s[from*chunk+j] * int64(k%7+1)
			}
		}
		chk += t
		fmt.Fprintf(&out, "[rank 0] round %d %d\n", round, t)
	}
	fmt.Fprintf(&out, "[rank 0] checksum %d\n", chk)
	return Program{
		Name:         "mpilab",
		Source:       src,
		Ranks:        mpiRanks,
		Expect:       out.String(),
		VirtualClock: true,
	}
}

// --- the oracle ----------------------------------------------------------------

var virtualLine = regexp.MustCompile(`^\[rank 0\] time_ns ([0-9]+)\n$`)

// checkOutput compares a finished job against its program's oracle. It
// returns the virtual makespan for VirtualClock programs (0 otherwise) and an
// error describing the first mismatch.
func checkOutput(p Program, state, stdout string) (int64, error) {
	if state != "succeeded" {
		return 0, fmt.Errorf("%s: job ended %q, want succeeded", p.Name, state)
	}
	if !p.VirtualClock {
		if stdout != p.Expect {
			return 0, fmt.Errorf("%s: stdout %q, want %q", p.Name, stdout, p.Expect)
		}
		return 0, nil
	}
	if !strings.HasPrefix(stdout, p.Expect) {
		return 0, fmt.Errorf("%s: stdout %q, want prefix %q", p.Name, stdout, p.Expect)
	}
	m := virtualLine.FindStringSubmatch(stdout[len(p.Expect):])
	if m == nil {
		return 0, fmt.Errorf("%s: stdout tail %q is not one time_ns line", p.Name, stdout[len(p.Expect):])
	}
	ns, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: time_ns: %w", p.Name, err)
	}
	return ns, nil
}
