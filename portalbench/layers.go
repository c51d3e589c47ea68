package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	ccportal "repro"
)

// recorder is the traced run's http.RoundTripper: it counts and times every
// request on the wire by route and status, including 429s the client retries
// on its own.
type recorder struct {
	next http.RoundTripper

	mu    sync.Mutex
	count map[string]int       // "route status" → requests
	rtt   map[string][]float64 // route → header round trip, ms
}

func newRecorder(next http.RoundTripper) *recorder {
	return &recorder{next: next, count: make(map[string]int), rtt: make(map[string][]float64)}
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	res, err := r.next.RoundTrip(req)
	d := time.Since(t0)
	route := routeOf(req)
	status := "transport_error"
	if err == nil {
		status = fmt.Sprint(res.StatusCode)
	}
	r.mu.Lock()
	r.count[route+" "+status]++
	if err == nil {
		r.rtt[route] = append(r.rtt[route], ms(d))
	}
	r.mu.Unlock()
	return res, err
}

// routeOf names a request by method and path pattern, with job IDs folded
// into {id}, the way the portal's own route labels read.
func routeOf(req *http.Request) string {
	parts := strings.Split(req.URL.Path, "/")
	for i, p := range parts {
		if strings.HasPrefix(p, "job-") {
			parts[i] = "{id}"
		}
	}
	return req.Method + " " + strings.Join(parts, "/")
}

// totals returns all requests seen and how many were answered 429.
func (r *recorder) totals() (requests, limited int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, n := range r.count {
		requests += n
		if strings.HasSuffix(k, " 429") {
			limited += n
		}
	}
	return requests, limited
}

// print lists every route and status seen, with the header round trip.
func (r *recorder) print() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range sortedKeys(r.count) {
		route := k[:strings.LastIndex(k, " ")]
		xs := append([]float64(nil), r.rtt[route]...)
		fmt.Printf("  wire %-44s requests=%-6d route_rtt_p50_ms=%.4f\n", k, r.count[k], quantile(xs, 0.5))
	}
}

// counters is the public state read before and after the traced phase:
// System.Tools.Stats(), System.Provider.Status(), the System.Metrics
// histograms and every account's /api/usage step total.
type counters struct {
	compiles, hits, dedups      int64
	walRecords, batches, fsyncs int64
	prom                        map[string]*promHist
	steps                       int64
}

func readCounters(e *env) (counters, error) {
	t, st := e.sys.Tools.Stats(), e.sys.Provider.Status()
	c := counters{
		compiles: t.Compiles, hits: t.CacheHits, dedups: t.Dedups,
		walRecords: st.WALRecords, batches: st.Batches, fsyncs: st.Fsyncs,
	}
	var buf bytes.Buffer
	if err := e.sys.Metrics.WritePrometheus(&buf); err != nil {
		return c, err
	}
	c.prom = parseProm(buf.Bytes())
	for _, a := range e.accts {
		u, err := a.Usage()
		if err != nil {
			return c, fmt.Errorf("usage: %w", err)
		}
		c.steps += u.Steps.Used
	}
	return c, nil
}

// jobSpans is what one job's span tree says about its layers.
type jobSpans struct {
	root     ccportal.TraceSpan
	children map[string]ccportal.TraceSpan
}

func spansOf(tr ccportal.JobTrace) jobSpans {
	js := jobSpans{root: tr.Trace, children: make(map[string]ccportal.TraceSpan)}
	for _, c := range tr.Trace.Children {
		if _, dup := js.children[c.Name]; !dup {
			js.children[c.Name] = c
		}
	}
	return js
}

func (s jobSpans) dur(name string) (time.Duration, bool) {
	c, ok := s.children[name]
	if !ok || c.End.IsZero() {
		return 0, false
	}
	return c.End.Sub(c.Start), true
}

// covered is how much of [from, to] the union of the given intervals covers.
func covered(from, to time.Time, iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	cur := from
	for _, x := range iv {
		a, b := x[0], x[1]
		if a.Before(cur) {
			a = cur
		}
		if b.After(to) {
			b = to
		}
		if b.After(a) {
			total += b.Sub(a)
			cur = b
		}
	}
	return total
}

// layerSet collects one named sample list per per-layer metric.
type layerSet map[string][]float64

func (l layerSet) add(name string, v float64) { l[name] = append(l[name], v) }

// analyseTraces fetches every sampled job's span tree through the public
// trace route and turns spans plus the client's own timestamps into layer
// samples. It returns the share of end-to-end turnaround that neither the
// submit round trip, the job's spans nor the done delivery account for.
func analyseTraces(jobs []jobSample, l layerSet) (unattributed float64, err error) {
	var sumTurn, sumCov time.Duration
	for _, j := range jobs {
		tr, err := j.acct.Trace(j.id)
		if err != nil {
			return 0, fmt.Errorf("trace %s: %w", j.id, err)
		}
		s := spansOf(tr)
		if d, ok := s.dur("queued"); ok {
			l.add("jobs.queue_wait_p50_ms", ms(d))
		}
		if q, ok := s.children["queued"]; ok {
			if c, ok := s.children["compile"]; ok {
				l.add("scheduler.dispatch_p50_us", us(c.Start.Sub(q.End)))
			}
		}
		if d, ok := s.dur("allocate"); ok {
			l.add("cluster.allocate_p50_us", us(d))
		}
		if d, ok := s.dur("release"); ok {
			l.add("cluster.release_p50_us", us(d))
		}
		if d, ok := s.dur("compile"); ok {
			l.add("toolchain.compile_p50_us", us(d))
		}
		run, haveRun := s.children["running"]
		if d, ok := s.dur("running"); ok {
			l.add("minic.run_p50_ms", ms(d))
		}
		if haveRun && !j.firstOut.IsZero() {
			l.add("jobs.first_event_after_start_p50_ms", ms(j.firstOut.Sub(run.Start)))
		}
		end := s.root.End
		l.add("jobs.done_delivery_ms", ms(j.done.Sub(end)))

		iv := [][2]time.Time{{j.send, j.submitted}, {end, j.done}}
		for _, c := range s.children {
			if !c.End.IsZero() {
				iv = append(iv, [2]time.Time{c.Start, c.End})
			}
		}
		sumTurn += j.done.Sub(j.send)
		sumCov += covered(j.send, j.done, iv)
	}
	return 1 - ratio(float64(sumCov), float64(sumTurn)), nil
}
