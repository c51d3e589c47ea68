// Command portalbench is the portal's end-to-end benchmark. It boots the
// whole system in process through the ccportal facade, serves it on a
// loopback listener and drives it as students do with portalctl run: upload,
// Submit, then Watch until the done event. Every job's stdout is checked
// byte for byte against an oracle computed in Go.
//
//	portalbench --workload pipeline|classroom|mpi-lab|all --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it makes a
// separate traced run and prints the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// The exit code is 0 only when every job succeeded with correct output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

// metric is one reported figure; n is its sample count, printed beside it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// scratchDir holds the durable workload's WAL and snapshots while it runs;
// it lies inside the working directory and is removed afterwards.
var scratchDir = filepath.Join(".bench_build", "portalbench-state")

func run(args []string) int {
	fs := flag.NewFlagSet("portalbench", flag.ContinueOnError)
	name := fs.String("workload", "", "pipeline, classroom, mpi-lab or all")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 10, "length of the measured run in seconds")
	traced := fs.Int("trace", 0, "1 makes the separate traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var todo []*workload
	if *name == "all" {
		todo = workloads
	} else if w := workloadByName(*name); w != nil {
		todo = []*workload{w}
	}
	if len(todo) == 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "portalbench: need --workload pipeline|classroom|mpi-lab|all, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "portalbench: %v\n", err)
		return 2
	}
	defer os.Remove(scratchDir)

	fmt.Printf("meta seed=%d nproc=%d gomaxprocs=%d go=%s seconds=%d trace=%d\n",
		*seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seconds, *traced)
	total := result{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range todo {
		fmt.Printf("workload %s: closed loop, clients=%d accounts=%d persistence=%s\n  why: %s\n",
			w.name, w.clients, w.accounts, persistence(w), w.why)
		d := time.Duration(*seconds) * time.Second
		var res result
		var err error
		if *traced == 1 {
			res, err = tracedRun(w, *seed, d)
		} else {
			res, err = measuredRun(w, *seed, d)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "portalbench: %s: %v\n", w.name, err)
			return 2
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(todo) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "portalbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

func persistence(w *workload) string {
	if w.durable {
		return "durable"
	}
	return "memory"
}

// setupReps is how many times a measured run performs the whole set-up; it
// reports the median and measures on the last system booted.
const setupReps = 7

// windowsPerRun splits a measured run into equal windows by the time each job
// finished. Throughput and latency percentiles are computed per window and
// the median window is reported, so that a pause of the shared host that
// lands in one window does not move the run's figure.
const windowsPerRun = 4

type window struct {
	secs        float64
	turn, first []float64 // ms
}

type windows []window

func windowsOf(p *phase, d time.Duration) windows {
	ws := make(windows, windowsPerRun)
	span := d / windowsPerRun
	for i := range ws {
		ws[i].secs = span.Seconds()
	}
	// Cycles still in flight at the deadline finish in the last window.
	ws[len(ws)-1].secs += (p.end.Sub(p.start) - d).Seconds()
	for _, j := range p.jobs {
		i := min(int(j.done.Sub(p.start)/span), len(ws)-1)
		ws[i].turn = append(ws[i].turn, ms(j.done.Sub(j.send)))
		if !j.firstOut.IsZero() {
			ws[i].first = append(ws[i].first, ms(j.firstOut.Sub(j.send)))
		}
	}
	return ws
}

// median is f's median over the windows; n is the run's sample count.
func (ws windows) median(f func(window) float64, unit string, n int) metric {
	vals := make([]float64, len(ws))
	for i, w := range ws {
		vals[i] = f(w)
	}
	return metric{Value: quantile(vals, 0.5), Unit: unit, n: n}
}

// measuredRun is the untraced run behind every end-to-end metric.
func measuredRun(w *workload, seed int64, d time.Duration) (result, error) {
	var setups []float64
	var e *env
	for rep := 0; rep < setupReps; rep++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = boot(w, seed, scratchDir); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	var base, after, retained runtime.MemStats
	liveHeap(&base)
	p := e.run(d)
	runtime.ReadMemStats(&after)
	liveHeap(&retained)

	res := newResult(p)
	jobs := len(p.jobs)
	var turn, first []float64
	for _, j := range p.jobs {
		turn = append(turn, ms(j.done.Sub(j.send)))
		if !j.firstOut.IsZero() {
			first = append(first, ms(j.firstOut.Sub(j.send)))
		}
	}
	win := windowsOf(p, d)
	m := res.Metrics
	m["setup_s"] = metric{Value: quantile(setups, 0.5), Unit: "s", n: len(setups)}
	m["jobs_per_s"] = win.median(func(w window) float64 { return float64(len(w.turn)) / w.secs }, "jobs/s", jobs)
	m["turnaround_p50_ms"] = win.median(func(w window) float64 { return quantile(w.turn, 0.5) }, "ms", len(turn))
	m["turnaround_p90_ms"] = win.median(func(w window) float64 { return quantile(w.turn, 0.9) }, "ms", len(turn))
	m["first_output_p50_ms"] = win.median(func(w window) float64 { return quantile(w.first, 0.5) }, "ms", len(first))
	m["first_output_p90_ms"] = win.median(func(w window) float64 { return quantile(w.first, 0.9) }, "ms", len(first))
	m["alloc_kb_per_job"] = metric{
		Value: ratio(float64(after.TotalAlloc-base.TotalAlloc)/1024, float64(jobs)), Unit: "KiB", n: jobs}
	// Heap the run left live, per job: job records, stream rings, files and
	// cache entries kept after the job is done. Divided by jobs so that a
	// faster portal, which runs more jobs in the same time, does not read as
	// a leakier one.
	m["retained_kb_per_job"] = metric{
		Value: ratio((float64(retained.HeapAlloc)-float64(base.HeapAlloc))/1024, float64(jobs)), Unit: "KiB", n: jobs}
	report(p, res, map[string]float64{
		"turnaround_p99_ms":   quantile(turn, 0.99),
		"first_output_p99_ms": quantile(first, 0.99),
		"retained_heap_mb":    float64(retained.HeapInuse) / (1 << 20),
	})
	return res, nil
}

// liveHeap reads memory statistics after two forced collections, the second
// of which also empties the sync.Pool victim caches, so HeapAlloc is the
// live heap.
func liveHeap(ms *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(ms)
}

// tracedRun is the separate traced run. It first repeats the untraced loop
// for half the time, then runs the same loop for the other half with a
// recording RoundTripper on every client, reading the system's public
// counters before and after and each job's span tree once the loop is over.
func tracedRun(w *workload, seed int64, d time.Duration) (result, error) {
	e, err := boot(w, seed, scratchDir)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()

	plain := e.run(d / 2)
	before, err := readCounters(e)
	if err != nil {
		return result{}, err
	}
	rec := newRecorder(e.tr)
	e.setHTTP(&http.Client{Transport: rec})
	p := e.run(d / 2)
	e.setHTTP(e.plain)
	after, err := readCounters(e)
	if err != nil {
		return result{}, err
	}
	requests, limited := rec.totals()

	l := make(layerSet)
	unattributed, err := analyseTraces(p.jobs, l)
	if err != nil {
		return result{}, err
	}
	for _, j := range p.jobs {
		l.add("portal.submit_rtt_p50_ms", ms(j.submitted.Sub(j.send)))
		if j.stdinRTT > 0 {
			l.add("jobs.stdin_rtt_p50_ms", ms(j.stdinRTT))
		}
	}
	jobs := float64(len(p.jobs))
	res := newResult(p)
	m := res.Metrics
	p50 := func(name, unit string, xs []float64) {
		m[name] = metric{Value: quantile(xs, 0.5), Unit: unit, n: len(xs)}
	}
	p50("portal.submit_rtt_p50_ms", "ms", l["portal.submit_rtt_p50_ms"])
	p50("portal.upload_rtt_p50_ms", "ms", p.ops["upload"].rttMS)
	p50("portal.read_rtt_p50_ms", "ms", append(append([]float64(nil), p.ops["list"].rttMS...), p.ops["get"].rttMS...))
	p50("portal.watch_open_rtt_p50_ms", "ms", p.ops["watch"].rttMS)
	m["portal.requests_per_job"] = metric{Value: ratio(float64(requests), jobs), Unit: "requests/job", n: requests}
	for _, h := range []struct{ key, route string }{
		{"submit", "POST /api/jobs"},
		{"upload", "PUT /api/files/content"},
		{"list", "GET /api/jobs"},
		{"get", "GET /api/jobs/{id}"},
		{"input", "POST /api/jobs/{id}/input"},
	} {
		v, n := histDelta(before.prom, after.prom, `http_request_seconds{route="`+h.route+`"}`, 0.5)
		m["portal.handler_p50_us."+h.key] = metric{Value: v * 1e6, Unit: "us", n: n}
	}
	m["tenancy.rate_limited"] = metric{Value: float64(limited), Unit: "count", n: requests}
	p50("jobs.queue_wait_p50_ms", "ms", l["jobs.queue_wait_p50_ms"])
	dd := l["jobs.done_delivery_ms"]
	m["jobs.done_delivery_p50_ms"] = metric{Value: quantile(dd, 0.5), Unit: "ms", n: len(dd)}
	m["jobs.done_delivery_p90_ms"] = metric{Value: quantile(dd, 0.9), Unit: "ms", n: len(dd)}
	p50("jobs.first_event_after_start_p50_ms", "ms", l["jobs.first_event_after_start_p50_ms"])
	p50("jobs.stdin_rtt_p50_ms", "ms", l["jobs.stdin_rtt_p50_ms"])
	p50("scheduler.dispatch_p50_us", "us", l["scheduler.dispatch_p50_us"])
	v, n := histDelta(before.prom, after.prom, "scheduler_pass_seconds", 0.5)
	m["scheduler.pass_p50_us"] = metric{Value: v * 1e6, Unit: "us", n: n}
	p50("cluster.allocate_p50_us", "us", l["cluster.allocate_p50_us"])
	p50("cluster.release_p50_us", "us", l["cluster.release_p50_us"])
	p50("toolchain.compile_p50_us", "us", l["toolchain.compile_p50_us"])
	hits := float64(after.hits - before.hits)
	lookups := hits + float64(after.compiles-before.compiles) + float64(after.dedups-before.dedups)
	m["toolchain.cache_hit_share"] = metric{Value: ratio(hits, lookups), Unit: "ratio", n: int(lookups)}
	p50("minic.run_p50_ms", "ms", l["minic.run_p50_ms"])
	m["minic.steps_per_job"] = metric{Value: ratio(float64(after.steps-before.steps), jobs), Unit: "steps/job", n: len(p.jobs)}
	var virt float64
	if len(p.jobs) > 0 {
		virt = float64(p.jobs[0].virtualNS)
	}
	m["mpi.virtual_ns"] = metric{Value: virt, Unit: "virtual_ns", n: len(p.jobs)}
	records := float64(after.walRecords - before.walRecords)
	m["dataprovider.wal_records_per_job"] = metric{Value: ratio(records, jobs), Unit: "records/job", n: int(records)}
	m["dataprovider.fsyncs_per_job"] = metric{Value: ratio(float64(after.fsyncs-before.fsyncs), jobs), Unit: "fsyncs/job", n: int(after.fsyncs - before.fsyncs)}
	m["dataprovider.records_per_batch"] = metric{Value: ratio(records, float64(after.batches-before.batches)), Unit: "records/batch", n: int(after.batches - before.batches)}
	v, n = histDelta(before.prom, after.prom, "wal_append_seconds", 0.5)
	m["dataprovider.wal_append_p50_us"] = metric{Value: v * 1e6, Unit: "us", n: n}
	m["trace.unattributed_share"] = metric{Value: unattributed, Unit: "ratio", n: len(p.jobs)}
	plainRate := float64(len(plain.jobs)) / plain.end.Sub(plain.start).Seconds()
	tracedRate := jobs / p.end.Sub(p.start).Seconds()
	m["trace.overhead_share"] = metric{Value: 1 - ratio(tracedRate, plainRate), Unit: "ratio", n: len(plain.jobs) + len(p.jobs)}
	report(p, res, map[string]float64{
		"jobs.done_delivery_p99_ms": quantile(dd, 0.99),
	})
	rec.print()
	return res, nil
}

// newResult fills in correctness and the attempted/failed operation counts.
// A job that ends in any state but succeeded, or whose output differs from
// the oracle, makes the run incorrect; a refused request only counts as a
// failed operation. On mpi-lab every job must report the same virtual time.
func newResult(p *phase) result {
	attempted, failed := p.totals()
	if len(p.jobs) > 0 {
		v := p.jobs[0].virtualNS
		for _, j := range p.jobs {
			if j.virtualNS != v {
				p.wrong(fmt.Sprintf("job %s: virtual time %d ns, job %s had %d ns", j.id, j.virtualNS, p.jobs[0].id, v))
				break
			}
		}
	}
	if len(p.jobs) == 0 {
		p.wrong("no job completed")
	}
	return result{
		Correct:   len(p.incorrect) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric),
	}
}

// report prints the human-readable block for one workload: every metric with
// its unit and sample count, then operations and failures by class.
func report(p *phase, res result, extra map[string]float64) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		mt := res.Metrics[k]
		fmt.Printf("  %-40s %14.4f %-14s n=%d\n", k, mt.Value, mt.Unit, mt.n)
	}
	for _, k := range sortedKeys(extra) {
		fmt.Printf("  %-40s %14.4f (printed only)\n", k, extra[k])
	}
	fmt.Printf("  %-40s %14.6f ratio          failed %d of %d operations\n",
		"failed_ops_share", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	for _, op := range opNames {
		s := p.ops[op]
		if s.attempted > 0 {
			fmt.Printf("  op %-8s attempted=%d failed=%d\n", op, s.attempted, s.failed)
		}
	}
	for _, c := range failureClasses {
		fmt.Printf("  failures %-12s %d\n", c, p.classes[c])
	}
	for i, msg := range p.incorrect {
		if i == 5 {
			fmt.Printf("  ... %d more incorrect\n", len(p.incorrect)-5)
			break
		}
		fmt.Printf("  INCORRECT %s\n", msg)
	}
	fmt.Printf("  correct=%v\n", res.Correct)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
