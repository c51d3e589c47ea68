package portal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/topology"
)

// TestAppendJSONBytesParity pins the hand escaper to encoding/json: for
// every probe the bytes must match json.Marshal of the same string exactly,
// HTML escaping and invalid-UTF-8 replacement included.
func TestAppendJSONBytesParity(t *testing.T) {
	probes := []string{
		"",
		"plain ascii",
		`quotes " and \ backslash`,
		"newline\n tab\t cr\r",
		"control \x00\x01\x1f bytes",
		"html <tag> & entity",
		"unicode – ñ – 日本語",
		"line sep   and   end",
		"invalid \xff\xfe utf8",
		"mixed \xc3\x28 sequence",
		"trailing backslash \\",
	}
	for _, p := range probes {
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONBytes(nil, []byte(p)); !bytes.Equal(got, want) {
			t.Errorf("appendJSONBytes(%q) = %s, want %s", p, got, want)
		}
		if got := appendJSONString(nil, p); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", p, got, want)
		}
	}
}

// TestAppendJobParity pins appendJob to the jobJSON struct it replaces: both
// renderings must decode to identical JSON values, and the omission rules
// (failure, nodes) must match byte-for-byte.
func TestAppendJobParity(t *testing.T) {
	base := time.Date(2026, 8, 8, 10, 30, 0, 123456789, time.UTC)
	snaps := []jobs.Snapshot{
		{
			ID:   "job-1",
			Spec: jobs.Spec{Owner: "ana", SourcePath: "/hello.mc", Language: "minic", Ranks: 4},
			// queued: zero Started/Finished, no failure, no nodes
			State: jobs.StateQueued, Submitted: base,
		},
		{
			ID:    "job-2",
			Spec:  jobs.Spec{Owner: "bo", SourcePath: "/π <&>.mc", Language: "minic", Ranks: 2},
			State: jobs.StateRunning, Submitted: base, Started: base.Add(time.Second),
			Nodes: []topology.NodeID{{Segment: 0, Index: 3}, {Segment: 1, Index: 12}},
		},
		{
			ID:    "job-3",
			Spec:  jobs.Spec{Owner: "cy", SourcePath: "/x.mc", Language: "minic", Ranks: 1},
			State: jobs.StateFailed, Submitted: base, Started: base, Finished: base.Add(time.Minute),
			Failure: `compile error: "unexpected token"`,
		},
	}
	for _, snap := range snaps {
		want, err := json.Marshal(toJobJSON(snap))
		if err != nil {
			t.Fatal(err)
		}
		got := appendJob(nil, &snap)
		if !bytes.Equal(got, want) {
			t.Errorf("appendJob(%s):\n got %s\nwant %s", snap.ID, got, want)
		}
	}
}

// writeSSE is the reference rendering of one Server-Sent Event frame that
// the hand-rolled frame appenders must match byte for byte. The payload is
// JSON-encoded, so it is a single line by construction (encoding/json
// escapes newlines).
func writeSSE(w io.Writer, event string, id int64, payload interface{}) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", event, id, data)
	return err
}

// TestAppendOutputFrameParity pins the hand-rolled SSE frame to what
// writeSSE produces for the same sseOutputEvent.
func TestAppendOutputFrameParity(t *testing.T) {
	data := []byte("line one\nline <two> & \xff end")
	var want bytes.Buffer
	if err := writeSSE(&want, "output", 42, sseOutputEvent{
		Seq: 42, Stream: "stdout", Data: string(data), Dropped: 7,
	}); err != nil {
		t.Fatal(err)
	}
	got := appendOutputFrame(nil, 42, data, 7)
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("appendOutputFrame:\n got %q\nwant %q", got, want.Bytes())
	}
}

// TestAppendDoneFrameParity pins the hand-rolled done frame to what
// writeSSE produces for the same sseDoneEvent, for every terminal state and
// a state string that needs escaping.
func TestAppendDoneFrameParity(t *testing.T) {
	states := []string{
		jobs.StateSucceeded.String(), jobs.StateFailed.String(), jobs.StateCancelled.String(),
		`odd "<state>" & \ more`,
	}
	for i, state := range states {
		seq := int64(i * 1000)
		var want bytes.Buffer
		if err := writeSSE(&want, "done", seq, sseDoneEvent{Seq: seq, State: state}); err != nil {
			t.Fatal(err)
		}
		got := appendDoneFrame(nil, seq, state)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("appendDoneFrame(%q):\n got %q\nwant %q", state, got, want.Bytes())
		}
	}
}

// TestQueryParam pins the zero-alloc query getter to url.Values semantics
// for the shapes the API uses, including the escaped fallback.
func TestQueryParam(t *testing.T) {
	cases := []string{
		"limit=8&state=queued&cursor=job-17",
		"state=queued",
		"stat=short&state=long", // key-prefix collision
		"all=1&wait=",
		"cursor=a%2Fb&path=with+space",
		"",
		"limit",           // no '='
		"&&limit=3&&",     // empty pairs
		"limit=1&limit=2", // first wins, like Values.Get
	}
	keys := []string{"limit", "state", "cursor", "all", "wait", "path", "stat", "missing"}
	for _, raw := range cases {
		r := httptest.NewRequest("GET", "/api/jobs?"+raw, nil)
		for _, k := range keys {
			if got, want := queryParam(r, k), r.URL.Query().Get(k); got != want {
				t.Errorf("queryParam(%q, %q) = %q, want %q", raw, k, got, want)
			}
		}
	}
}

// TestContentLengthSet verifies every JSON response carries an exact
// Content-Length — both encoder-path and hand-encoded responses.
func TestContentLengthSet(t *testing.T) {
	srv, token := benchServer(t)
	for _, target := range []string{"/api/languages", "/api/jobs?limit=5", "/api/whoami", "/api/cluster/stats"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, benchRequest("GET", target, token, ""))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", target, rec.Code, rec.Body.String())
		}
		cl := rec.Header().Get("Content-Length")
		if cl == "" {
			t.Fatalf("GET %s: no Content-Length", target)
		}
		if n, _ := strconv.Atoi(cl); n != rec.Body.Len() {
			t.Fatalf("GET %s: Content-Length %s != body %d", target, cl, rec.Body.Len())
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Fatalf("GET %s: Content-Type = %q", target, got)
		}
	}
}

// TestWriteJSONEncodeFailure verifies the satellite fix: an Encode error is
// surfaced as a 500 envelope instead of a silently empty 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	srv, _ := benchServer(t)
	rec := httptest.NewRecorder()
	srv.writeJSON(rec, http.StatusOK, map[string]interface{}{"bad": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body not an error envelope: %s", rec.Body.String())
	}
	if env.Error.Code != CodeInternal {
		t.Fatalf("code = %q, want %q", env.Error.Code, CodeInternal)
	}
}

// --- allocation regression gates -------------------------------------------
//
// These are the hard floor under the zero-alloc work: if a change puts
// steady-state allocations back on a hot GET path, make check fails, not
// just a benchmark number nobody compares.

// TestAllocsLanguages gates the full ServeHTTP path of GET /api/languages at
// zero steady-state allocations.
func TestAllocsLanguages(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	srv, token := benchServer(t)
	req := benchRequest("GET", "/api/languages", token, "")
	rec := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(200, func() {
		rec.Body.Reset()
		srv.ServeHTTP(rec, req)
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if allocs != 0 {
		t.Fatalf("GET /api/languages allocates %v/op, want 0", allocs)
	}
}

// TestAllocsJobList gates the full ServeHTTP path of a GET /api/jobs page at
// zero steady-state allocations.
func TestAllocsJobList(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	srv, token := benchServer(t)
	for i := 0; i < 8; i++ {
		if _, err := srv.Jobs.Submit(jobs.Spec{Owner: "bench", SourcePath: "/p.mc", Language: "minic", Ranks: 1}); err != nil {
			t.Fatal(err)
		}
	}
	req := benchRequest("GET", "/api/jobs?limit=8", token, "")
	rec := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(200, func() {
		rec.Body.Reset()
		srv.ServeHTTP(rec, req)
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if allocs != 0 {
		t.Fatalf("GET /api/jobs page allocates %v/op, want 0", allocs)
	}
}

// TestAllocsJobGet gates the handler+encode path of GET /api/jobs/{id} at
// zero allocations. The handler is invoked directly with the path value
// pre-set: the one remaining full-path allocation is the mux's wildcard
// capture slice, which belongs to net/http, not to this package.
func TestAllocsJobGet(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	srv, token := benchServer(t)
	job, err := srv.Jobs.Submit(jobs.Spec{Owner: "bench", SourcePath: "/p.mc", Language: "minic", Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Auth.Lookup(token)
	if err != nil {
		t.Fatal(err)
	}
	req := benchRequest("GET", "/api/jobs/"+job.ID, token, "")
	req.SetPathValue("id", job.ID)
	rec := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(200, func() {
		rec.Body.Reset()
		srv.handleJobGet(rec, req, sess)
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if allocs != 0 {
		t.Fatalf("job get handler+encode allocates %v/op, want 0", allocs)
	}
}
