package portal

import (
	"bufio"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// sseEvent is one decoded Server-Sent Event frame.
type sseEvent struct {
	name string
	id   int64
	Seq  int64  `json:"seq"`
	Strm string `json:"stream"`
	Data string `json:"data"`
	Drop int64  `json:"dropped"`
	Stat string `json:"state"`
}

// sseReader incrementally parses an SSE response body.
type sseReader struct {
	t  *testing.T
	br *bufio.Reader
}

// next returns the next event frame, skipping heartbeat comments.
func (r *sseReader) next() sseEvent {
	r.t.Helper()
	var ev sseEvent
	var name string
	var id int64
	var data []byte
	for {
		line, err := r.br.ReadString('\n')
		if err != nil {
			r.t.Fatalf("reading SSE frame: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if name == "" && data == nil {
				continue
			}
			if err := json.Unmarshal(data, &ev); err != nil {
				r.t.Fatalf("decoding %q: %v", data, err)
			}
			ev.name, ev.id = name, id
			return ev
		case strings.HasPrefix(line, ":"):
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			id, _ = strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: ")...)
		}
	}
}

// openEvents starts an SSE subscription for the job and returns the live
// response plus a frame reader.
func (c *client) openEvents(jobID, extra string, hdr map[string]string) (*http.Response, *sseReader) {
	t := c.t
	t.Helper()
	req, err := http.NewRequest("GET", c.base+"/api/jobs/"+jobID+"/events"+extra, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { res.Body.Close() })
	return res, &sseReader{t: t, br: bufio.NewReader(res.Body)}
}

func submitIdleJob(t *testing.T, s *stack, owner string) *jobs.Job {
	t.Helper()
	job, err := s.store.Submit(jobs.Spec{Owner: owner, SourcePath: "/p.mc", Language: "minic", Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func TestJobEventsSSEDelivery(t *testing.T) {
	s := newStackDispatch(t, false)
	alice := s.register(t, "alice", "password1")
	job := submitIdleJob(t, s, "alice")
	job.Stdout.Write([]byte("hello "))

	res, r := alice.openEvents(job.ID, "", nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cc := res.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q", cc)
	}

	ev := r.next()
	if ev.name != "output" || ev.Data != "hello " || ev.Seq != 6 || ev.id != 6 || ev.Drop != 0 || ev.Strm != "stdout" {
		t.Fatalf("first event = %+v", ev)
	}

	// Tail delivery: bytes written after attach arrive pushed, and closing
	// the stream ends the subscription with a done event.
	job.Stdout.Write([]byte("world"))
	ev = r.next()
	if ev.name != "output" || ev.Data != "world" || ev.Seq != 11 {
		t.Fatalf("tail event = %+v", ev)
	}
	job.Stdout.Close()
	ev = r.next()
	if ev.name != "done" || ev.Seq != 11 {
		t.Fatalf("done event = %+v", ev)
	}

	// The server-side watcher must detach once the stream completes.
	waitFor(t, func() bool { return job.Stdout.Stats().Watchers == 0 })

	// The watcher metrics made it to the shared registry.
	snap := s.server.Metrics.Snapshot()
	if snap["sse_events_total"] < 2 {
		t.Fatalf("sse_events_total = %d", snap["sse_events_total"])
	}
}

func TestJobEventsResume(t *testing.T) {
	s := newStackDispatch(t, false)
	alice := s.register(t, "alice", "password1")
	job := submitIdleJob(t, s, "alice")
	job.Stdout.Write([]byte("0123456789"))
	job.Stdout.Close()

	// Resume mid-stream via Last-Event-ID, as a reconnecting EventSource
	// would. The id on each event is the position after its last byte, so a
	// client that saw id 4 has bytes [0,4) and resumes at position 4.
	_, r := alice.openEvents(job.ID, "", map[string]string{"Last-Event-ID": "4"})
	ev := r.next()
	if ev.Data != "456789" || ev.Seq != 10 || ev.Drop != 0 {
		t.Fatalf("resumed event = %+v", ev)
	}
	if ev = r.next(); ev.name != "done" {
		t.Fatalf("expected done, got %+v", ev)
	}

	// An explicit ?seq= wins over the header.
	_, r = alice.openEvents(job.ID, "?seq=8", map[string]string{"Last-Event-ID": "2"})
	if ev = r.next(); ev.Data != "89" {
		t.Fatalf("seq-param event = %+v", ev)
	}

	// A malformed resume point is a 400 in the standard envelope, not a
	// silently restarted stream.
	res, _ := alice.openEvents(job.ID, "", map[string]string{"Last-Event-ID": "bogus"})
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID status = %d", res.StatusCode)
	}
}

func TestJobEventsStaleResumeReportsDrop(t *testing.T) {
	s := newStackDispatch(t, false)
	s.store.SetStreamLimits(16, 0) // tiny ring: chunk size clamps to the limit
	alice := s.register(t, "alice", "password1")
	job := submitIdleJob(t, s, "alice")
	for i := 0; i < 8; i++ {
		job.Stdout.Write([]byte("01234567")) // 64 bytes through a 16-byte ring
	}
	job.Stdout.Close()

	_, r := alice.openEvents(job.ID, "?seq=0", nil)
	ev := r.next()
	if ev.Drop == 0 {
		t.Fatalf("stale resume did not surface a dropped range: %+v", ev)
	}
	if ev.Drop+int64(len(ev.Data)) != 64 {
		t.Fatalf("dropped %d + data %d != written 64", ev.Drop, len(ev.Data))
	}
}

func TestJobEventsAuthz(t *testing.T) {
	s := newStackDispatch(t, false)
	s.register(t, "alice", "password1")
	eve := s.register(t, "eve", "password1")
	job := submitIdleJob(t, s, "alice")
	if st := eve.getJSON("/api/jobs/"+job.ID+"/events", nil); st != http.StatusForbidden {
		t.Fatalf("cross-user events status = %d", st)
	}
}

// TestJobEventsDisconnectReleasesWatcher covers the leak fix: a watcher
// that goes away mid-wait must release its server-side watcher without
// waiting for the job's next write.
func TestJobEventsDisconnectReleasesWatcher(t *testing.T) {
	s := newStackDispatch(t, false)
	alice := s.register(t, "alice", "password1")
	job := submitIdleJob(t, s, "alice")

	res, _ := alice.openEvents(job.ID, "?seq=0", nil)
	// The handler is parked on an idle stream with a watcher attached.
	waitFor(t, func() bool { return job.Stdout.Stats().Watchers == 1 })
	res.Body.Close()
	// No write ever happened, yet the watcher is gone: the handler exited.
	waitFor(t, func() bool { return job.Stdout.Stats().Watchers == 0 })
}

func TestJobInputOverflowEnvelope(t *testing.T) {
	s := newStackDispatch(t, false)
	s.store.SetStreamLimits(0, 8)
	alice := s.register(t, "alice", "password1")
	job := submitIdleJob(t, s, "alice")

	status, body := alice.do("POST", "/api/jobs/"+job.ID+"/input", map[string]string{"data": "under"})
	if status != http.StatusOK {
		t.Fatalf("input under cap = %d: %s", status, body)
	}
	status, body = alice.do("POST", "/api/jobs/"+job.ID+"/input", map[string]string{"data": "overflowing"})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("overflow status = %d: %s", status, body)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != CodeStdinOverflow {
		t.Fatalf("overflow envelope = %s (err %v)", body, err)
	}
}

// waitFor polls cond for a few seconds; real time, since SSE plumbing and
// HTTP run on the wall clock even when the cluster clock is simulated.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestJobEventsCatchUpFields pins the event shape: a catch-up read carries
// the data, its resume position and the dropped count, and the done event
// carries the position and the job's state.
func TestJobEventsCatchUpFields(t *testing.T) {
	s := newStackDispatch(t, false)
	alice := s.register(t, "alice", "password1")
	job := submitIdleJob(t, s, "alice")
	job.Stdout.Write([]byte("abc"))
	_, r := alice.openEvents(job.ID, "?seq=0", nil)
	if ev := r.next(); ev.name != "output" || ev.Data != "abc" || ev.Seq != 3 || ev.Drop != 0 {
		t.Fatalf("catch-up event = %+v", ev)
	}
	job.Stdout.Close()
	if ev := r.next(); ev.name != "done" || ev.Seq != 3 || ev.Stat != "queued" {
		t.Fatalf("done event = %+v", ev)
	}
}

// watchIdle submits a job that never runs and subscribes to its events,
// returning once the handler's watcher is attached and waiting on an idle
// stream.
func watchIdle(t *testing.T, s *stack, c *client) (*jobs.Job, *sseReader) {
	t.Helper()
	job := submitIdleJob(t, s, "alice")
	_, r := c.openEvents(job.ID, "?seq=0", nil)
	waitFor(t, func() bool { return job.Stdout.Stats().Watchers == 1 })
	return job, r
}

// medianDuration returns the median of ds, sorting it in place.
func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// TestJobEventsIdleEdgeFlushesAtOnce: the only write of an idle stream, and
// the done event after Close, each arrive well inside one coalescing window
// rather than after lingering a full one. Medians over repeated trials keep
// a loaded host's scheduler pauses from deciding the outcome.
func TestJobEventsIdleEdgeFlushesAtOnce(t *testing.T) {
	s := newStackDispatch(t, false)
	alice := s.register(t, "alice", "password1")
	const trials = 20
	var first, done []time.Duration
	for i := 0; i < trials; i++ {
		job, r := watchIdle(t, s, alice)
		start := time.Now()
		job.Stdout.Write([]byte("only line\n"))
		if ev := r.next(); ev.name != "output" || ev.Data != "only line\n" || ev.Seq != 10 {
			t.Fatalf("trial %d: output event = %+v", i, ev)
		}
		first = append(first, time.Since(start))
		start = time.Now()
		job.Stdout.Close()
		if ev := r.next(); ev.name != "done" || ev.Seq != 10 {
			t.Fatalf("trial %d: done event = %+v", i, ev)
		}
		done = append(done, time.Since(start))
	}
	if m := medianDuration(first); m >= sseCoalesceWindow/2 {
		t.Errorf("median first-output delivery %v, want < %v (no linger on an idle edge)", m, sseCoalesceWindow/2)
	}
	if m := medianDuration(done); m >= sseCoalesceWindow/2 {
		t.Errorf("median done delivery after Close %v, want < %v", m, sseCoalesceWindow/2)
	}
}

// TestJobEventsBurstStillCoalesces: 1,000 writes in a tight loop arrive
// byte-exact in a small constant number of output events — the leading-edge
// flush, the trailing flush, and slack for one scheduler pause, plus one per
// coalescing window the loop itself took on a slow host.
func TestJobEventsBurstStillCoalesces(t *testing.T) {
	s := newStackDispatch(t, false)
	alice := s.register(t, "alice", "password1")
	job, r := watchIdle(t, s, alice)

	var want strings.Builder
	start := time.Now()
	for i := 0; i < 1000; i++ {
		line := "line " + strconv.Itoa(i) + "\n"
		want.WriteString(line)
		job.Stdout.Write([]byte(line))
	}
	loop := time.Since(start)
	job.Stdout.Close()

	var got strings.Builder
	outputs := 0
	for {
		ev := r.next()
		if ev.name == "done" {
			if ev.Seq != int64(want.Len()) {
				t.Fatalf("done seq = %d, want %d", ev.Seq, want.Len())
			}
			break
		}
		if ev.Drop != 0 {
			t.Fatalf("burst lost %d bytes to retention", ev.Drop)
		}
		got.WriteString(ev.Data)
		outputs++
	}
	if got.String() != want.String() {
		t.Fatalf("burst delivered %d bytes, want %d byte-exact", got.Len(), want.Len())
	}
	if limit := 3 + int(loop/sseCoalesceWindow); outputs > limit {
		t.Fatalf("1000-write burst (loop %v) took %d output events, want <= %d", loop, outputs, limit)
	}
}

// TestJobEventsCloseEndsCoalescingWait: a write landing just after a flush
// waits out the rest of the window, but closing the stream ends that wait at
// once — the pending output and the done event follow the Close without a
// linger.
func TestJobEventsCloseEndsCoalescingWait(t *testing.T) {
	s := newStackDispatch(t, false)
	alice := s.register(t, "alice", "password1")
	const trials = 10
	var lat []time.Duration
	for i := 0; i < trials; i++ {
		job, r := watchIdle(t, s, alice)
		job.Stdout.Write([]byte("a"))
		if ev := r.next(); ev.Data != "a" {
			t.Fatalf("trial %d: leading event = %+v", i, ev)
		}
		// Inside the window of the flush that carried "a": the handler
		// starts a coalescing wait for this write.
		job.Stdout.Write([]byte("b"))
		time.Sleep(sseCoalesceWindow / 5)
		start := time.Now()
		job.Stdout.Close()
		if ev := r.next(); ev.name != "output" || ev.Data != "b" || ev.Seq != 2 {
			t.Fatalf("trial %d: trailing event = %+v", i, ev)
		}
		if ev := r.next(); ev.name != "done" || ev.Seq != 2 {
			t.Fatalf("trial %d: done event = %+v", i, ev)
		}
		lat = append(lat, time.Since(start))
	}
	if m := medianDuration(lat); m >= sseCoalesceWindow/2 {
		t.Errorf("median Close-to-done %v during a coalescing wait, want < %v", m, sseCoalesceWindow/2)
	}
}
