package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ccportal "repro"
)

// A workload is one traffic mix. Every client runs a closed loop: it sends
// its next request only after the previous one completed.
type workload struct {
	name        string
	why         string
	clients     int
	accounts    int
	durable     bool
	warmupJobs  int // fixed warm-up, part of set-up
	program     func(seed int64, cycle int) Program
	uploadEvery bool // upload the cycle's source before submitting it
	reads       bool // follow each job with one job list and one job get
}

var workloads = []*workload{
	{
		name:       "pipeline",
		why:        "closed loop, 1 client, 19 accounts, memory persistence: one cached 40k-iteration program on 1 rank, so HTTP requests, dispatch and SSE delivery dominate",
		clients:    1,
		accounts:   19,
		warmupJobs: 19,
		program:    func(seed int64, _ int) Program { return pipelineProgram(seed) },
	},
	{
		name:        "classroom",
		why:         "closed loop, 2 clients, 19 accounts, durable WAL: upload, submit, stdin on 1 job in 4, watch, list, get; half the sources miss the compile cache",
		clients:     2,
		accounts:    19,
		durable:     true,
		warmupJobs:  2 * poolSize,
		program:     classroomProgram,
		uploadEvery: true,
		reads:       true,
	},
	{
		name:       "mpi-lab",
		why:        "closed loop, 1 client, 1 account, memory persistence: 16-rank collectives and a message ring over 1024-element arrays; VM, MPI and gang allocation dominate",
		clients:    1,
		accounts:   1,
		warmupJobs: 3,
		program:    func(seed int64, _ int) Program { return mpiProgram(seed) },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// watchTimeout bounds one job's watch; a job that has not finished by then
// counts as a broken watch. The slowest job here takes well under a second.
const watchTimeout = 30 * time.Second

// env is one booted portal with its logged-in student accounts.
type env struct {
	w      *workload
	seed   int64
	sys    *ccportal.System
	ln     net.Listener
	served chan error
	tr     *http.Transport
	plain  *http.Client
	accts  []*ccportal.Client
	dir    string
	// cycle numbers every cycle this portal runs, so each classroom cycle
	// gets its own generated submission.
	cycle atomic.Int64
}

func accountName(i int) string { return fmt.Sprintf("s%02d", i+1) }

// boot performs the whole set-up: New, Recover, Serve on a loopback
// listener, registration and login of every account, the uploads, and the
// warm-up jobs that fill the compile cache and the connection pool.
func boot(w *workload, seed int64, scratch string) (*env, error) {
	cfg := ccportal.DefaultConfig()
	e := &env{w: w, seed: seed, served: make(chan error, 1)}
	if w.durable {
		dir, err := os.MkdirTemp(scratch, w.name+"-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		cfg.Persistence.Mode = "durable"
		cfg.Persistence.Dir = filepath.Join(dir, "data")
	}
	sys, err := ccportal.New(cfg, ccportal.Options{})
	if err != nil {
		e.removeDir()
		return nil, err
	}
	e.sys = sys
	if _, err := sys.Recover(); err != nil {
		sys.Provider.Close()
		e.removeDir()
		return nil, fmt.Errorf("recover: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.Provider.Close()
		e.removeDir()
		return nil, err
	}
	e.ln = ln
	sys.Start()
	go func() { e.served <- sys.Serve(ln) }()
	e.tr = &http.Transport{MaxIdleConnsPerHost: 4 * w.clients, IdleConnTimeout: time.Minute}
	e.plain = &http.Client{Transport: e.tr}
	url := "http://" + ln.Addr().String()
	for i := 0; i < w.accounts; i++ {
		c := ccportal.NewClient(url)
		c.HTTP = e.plain
		name := accountName(i)
		if err := c.Register(name, "pw-"+name); err != nil {
			e.close()
			return nil, fmt.Errorf("register %s: %w", name, err)
		}
		if err := c.Login(name, "pw-"+name); err != nil {
			e.close()
			return nil, fmt.Errorf("login %s: %w", name, err)
		}
		e.accts = append(e.accts, c)
	}
	if !w.uploadEvery {
		p := w.program(seed, 0)
		for _, c := range e.accts {
			if err := c.Upload(sourcePath(p, 0, false), []byte(p.Source)); err != nil {
				e.close()
				return nil, fmt.Errorf("upload: %w", err)
			}
		}
	}
	if err := e.warmup(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// warmup runs the workload's fixed warm-up jobs on all of its clients. For
// classroom they are the common lab solutions, so the measured run starts
// with every pooled source compiled.
func (e *env) warmup() error {
	p := newPhase()
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < e.w.clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= e.w.warmupJobs {
					return
				}
				prog := e.w.program(e.seed, 0)
				path := sourcePath(prog, 0, false)
				if e.w.uploadEvery {
					prog = poolProgram(e.seed, i%poolSize)
					path = "/warmup/" + prog.Name + ".mc"
				}
				e.runCycle(p, e.accts[i%len(e.accts)], prog, path)
			}
		}()
	}
	wg.Wait()
	if err := p.firstError(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// close shuts the portal down and removes its durable state. Serve returns
// once the listener is closed; Stop then waits for in-flight jobs.
func (e *env) close() {
	e.tr.CloseIdleConnections()
	e.ln.Close()
	<-e.served
	e.sys.Stop()
	e.sys.Provider.Close()
	e.removeDir()
}

func (e *env) removeDir() {
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// setHTTP points every account at the given HTTP client. Only called
// between phases, while no cycle runs.
func (e *env) setHTTP(hc *http.Client) {
	for _, c := range e.accts {
		c.HTTP = hc
	}
}

// sourcePath is where a cycle's source lives in the student's home. Classroom
// cycles each save a new file, so two in-flight cycles of one account never
// overwrite each other's source.
func sourcePath(p Program, cycle int, perCycle bool) string {
	if perCycle {
		return fmt.Sprintf("/lab/c%06d-%s.mc", cycle, p.Name)
	}
	return "/" + p.Name + ".mc"
}

// --- one measured phase ----------------------------------------------------------

// Failure classes. A refusal never aborts the run; it is counted and the
// client moves on to its next cycle.
const (
	class4xx       = "4xx"
	class429       = "429"
	class5xx       = "5xx"
	classTransport = "transport"
	classWatch     = "broken_watch"
)

var failureClasses = []string{class4xx, class429, class5xx, classTransport, classWatch}

func classify(err error) string {
	var ae *ccportal.APIError
	if errors.As(err, &ae) {
		switch {
		case ae.Status == http.StatusTooManyRequests:
			return class429
		case ae.Status >= 500:
			return class5xx
		default:
			return class4xx
		}
	}
	return classTransport
}

// Operations the clients perform.
var opNames = []string{"upload", "submit", "watch", "input", "list", "get"}

type opStat struct {
	attempted, failed int
	rttMS             []float64 // successful calls only
}

// jobSample is one job that finished with correct output.
type jobSample struct {
	id        string
	acct      *ccportal.Client
	send      time.Time // submit request about to be sent
	submitted time.Time // submit response received
	firstOut  time.Time // first stdout event received (zero if none)
	done      time.Time // done event received
	watchOpen time.Duration
	stdinRTT  time.Duration // zero for non-interactive jobs
	virtualNS int64
}

// phase gathers everything one closed-loop run observes.
type phase struct {
	start, end time.Time

	mu        sync.Mutex
	ops       map[string]*opStat
	classes   map[string]int
	jobs      []jobSample
	incorrect []string
	errs      []error
}

func newPhase() *phase {
	p := &phase{ops: make(map[string]*opStat), classes: make(map[string]int)}
	for _, n := range opNames {
		p.ops[n] = &opStat{}
	}
	return p
}

// op records one client call that started at t0. It reports whether the call
// succeeded; only successful calls contribute a latency sample.
func (p *phase) op(name string, t0 time.Time, err error) bool {
	d := time.Since(t0)
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.ops[name]
	s.attempted++
	if err != nil {
		s.failed++
		p.classes[classify(err)]++
		p.errs = append(p.errs, fmt.Errorf("%s: %w", name, err))
		return false
	}
	s.rttMS = append(s.rttMS, ms(d))
	return true
}

func (p *phase) brokenWatch(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ops["watch"].attempted++
	p.ops["watch"].failed++
	p.classes[classWatch]++
	p.errs = append(p.errs, fmt.Errorf("watch: %w", err))
}

// watched records a watch that followed its job to the done event; its
// latency sample is the time until the stream's headers arrived.
func (p *phase) watched(open time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ops["watch"].attempted++
	p.ops["watch"].rttMS = append(p.ops["watch"].rttMS, ms(open))
}

func (p *phase) addJob(js jobSample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.jobs = append(p.jobs, js)
}

func (p *phase) wrong(msg string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.incorrect = append(p.incorrect, msg)
}

func (p *phase) firstError() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.incorrect) > 0 {
		return errors.New(p.incorrect[0])
	}
	if len(p.errs) > 0 {
		return p.errs[0]
	}
	return nil
}

func (p *phase) totals() (attempted, failed int) {
	for _, s := range p.ops {
		attempted += s.attempted
		failed += s.failed
	}
	return attempted, failed
}

// run drives the workload's clients in closed loops for d, then waits for
// every cycle in flight to finish.
func (e *env) run(d time.Duration) *phase {
	p := newPhase()
	p.start = time.Now()
	deadline := p.start.Add(d)
	var wg sync.WaitGroup
	for k := 0; k < e.w.clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(e.cycle.Add(1) - 1)
				prog := e.w.program(e.seed, i)
				e.runCycle(p, e.accts[i%len(e.accts)], prog, sourcePath(prog, i, e.w.uploadEvery))
			}
		}()
	}
	wg.Wait()
	p.end = time.Now()
	return p
}

// runCycle is one iteration of a client's loop: for classroom, upload the
// cycle's source; then submit it and watch it to its done event, answering
// the prompt of an interactive program; check the output against the
// oracle; for classroom, finish with one job list and one job get.
func (e *env) runCycle(p *phase, c *ccportal.Client, prog Program, path string) {
	if e.w.uploadEvery {
		t0 := time.Now()
		if !p.op("upload", t0, c.Upload(path, []byte(prog.Source))) {
			return
		}
	}
	id := e.runJob(p, c, prog, path)
	if !e.w.reads {
		return
	}
	t0 := time.Now()
	_, err := c.JobsPage("", 20, "")
	p.op("list", t0, err)
	if id != "" {
		t0 = time.Now()
		_, err := c.JobStatus(id)
		p.op("get", t0, err)
	}
}

// runJob submits prog and follows it to completion. It returns the job ID,
// or "" if the submit was refused.
func (e *env) runJob(p *phase, c *ccportal.Client, prog Program, path string) string {
	js := jobSample{acct: c, send: time.Now()}
	job, err := c.Submit(path, "minic", prog.Ranks, "")
	if !p.op("submit", js.send, err) {
		return ""
	}
	js.id = job.ID
	js.submitted = time.Now()

	ctx, cancel := context.WithTimeout(context.Background(), watchTimeout)
	defer cancel()
	w, err := c.Watch(ctx, job.ID)
	if err != nil {
		p.brokenWatch(err)
		c.Cancel(job.ID) // best effort: an unanswered prompt would hold the job
		return job.ID
	}
	defer w.Close()
	js.watchOpen = time.Since(js.submitted)
	var out strings.Builder
	answered := prog.Prompt == ""
	var state string
	for {
		ev, err := w.Next()
		if err != nil {
			p.brokenWatch(err)
			c.Cancel(job.ID)
			return job.ID
		}
		if ev.Done {
			js.done = time.Now()
			state = ev.State
			break
		}
		if ev.Dropped > 0 {
			p.wrong(fmt.Sprintf("%s (%s): %d output bytes dropped", prog.Name, job.ID, ev.Dropped))
		}
		if ev.Data != "" && js.firstOut.IsZero() {
			js.firstOut = time.Now()
		}
		out.WriteString(ev.Data)
		if !answered && strings.HasPrefix(out.String(), prog.Prompt) {
			answered = true
			t0 := time.Now()
			if !p.op("input", t0, c.SendInput(job.ID, prog.Answer+"\n")) {
				c.Cancel(job.ID)
				return job.ID
			}
			js.stdinRTT = time.Since(t0)
		}
	}
	p.watched(js.watchOpen)
	virt, err := checkOutput(prog, state, out.String())
	if err != nil {
		if state != "succeeded" {
			if j, serr := c.JobStatus(job.ID); serr == nil {
				err = fmt.Errorf("%w (failure: %s)", err, j.Failure)
			}
		}
		p.wrong(fmt.Sprintf("job %s: %v", job.ID, err))
		return job.ID
	}
	js.virtualNS = virt
	p.addJob(js)
	return job.ID
}
