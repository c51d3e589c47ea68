package ccportal

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// rateLimitedBody is the envelope a throttled portal sends.
const rateLimitedBody = `{"error":{"code":"rate_limited","message":"api rate limit exceeded"}}`

// TestClientRetriesAfter429 drives the transparent retry: two 429s with a
// short Retry-After, then success. The client must resend — with the request
// body rewound — and the caller never sees the throttle.
func TestClientRetriesAfter429(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		body, _ := io.ReadAll(r.Body)
		if n <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, rateLimitedBody)
			return
		}
		// The retried request must carry the original body, proving rewind.
		if string(body) != `{"k":"v"}` {
			w.WriteHeader(http.StatusBadRequest)
			io.WriteString(w, `{"error":{"code":"invalid_argument","message":"body lost on retry"}}`)
			return
		}
		io.WriteString(w, `{"ok":true}`)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	var out struct {
		OK bool `json:"ok"`
	}
	start := time.Now()
	if err := c.doJSON("POST", "/x", map[string]string{"k": "v"}, &out); err != nil {
		t.Fatalf("doJSON after retries: %v", err)
	}
	if !out.OK {
		t.Fatal("response not decoded after retry")
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 throttled + 1 success)", got)
	}
	// Retry-After: 0 plus jitter bounds each wait by ~100ms; well under a
	// second total even on a slow runner.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retries took %v, want sub-second backoff for Retry-After: 0", elapsed)
	}
}

// TestClientSurfaces429AfterRetryBudget: a persistent throttle stops being
// retried after maxRateLimitRetries and surfaces as a typed APIError.
func TestClientSurfaces429AfterRetryBudget(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, rateLimitedBody)
	}))
	defer srv.Close()

	err := NewClient(srv.URL).do("GET", "/x", nil, nil)
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.Status != http.StatusTooManyRequests || ae.Code != "rate_limited" {
		t.Fatalf("APIError = %+v", ae)
	}
	if got := hits.Load(); got != int64(maxRateLimitRetries)+1 {
		t.Fatalf("server saw %d requests, want %d", got, maxRateLimitRetries+1)
	}
}

// TestClientDoesNotRetryLongOrHeaderless429: a Retry-After beyond the
// client's patience, or a 429 with no header at all, surfaces immediately —
// sleeping a minute inside a library call would be worse than the error.
func TestClientDoesNotRetryLongOrHeaderless429(t *testing.T) {
	for _, tc := range []struct {
		name   string
		header string
	}{
		{"long wait", "60"},
		{"no header", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				if tc.header != "" {
					w.Header().Set("Retry-After", tc.header)
				}
				w.WriteHeader(http.StatusTooManyRequests)
				io.WriteString(w, rateLimitedBody)
			}))
			defer srv.Close()

			err := NewClient(srv.URL).do("GET", "/x", nil, nil)
			var ae *APIError
			if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
				t.Fatalf("err = %v, want 429 APIError", err)
			}
			if got := hits.Load(); got != 1 {
				t.Fatalf("server saw %d requests, want 1 (no retry)", got)
			}
		})
	}
}

// TestWatchRetriesAfter429: opening an event stream rides the same retry
// policy as every other call — the first /events answers 429 with
// Retry-After: 0, the second streams, and Watch succeeds.
func TestWatchRetriesAfter429(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, rateLimitedBody)
			return
		}
		if r.URL.Path != "/api/jobs/job-1/events" || r.Header.Get("Accept") != "text/event-stream" {
			w.WriteHeader(http.StatusBadRequest)
			io.WriteString(w, `{"error":{"code":"invalid_argument","message":"not an events request"}}`)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "event: output\nid: 3\ndata: {\"seq\":3,\"stream\":\"stdout\",\"data\":\"hi\\n\",\"dropped\":0}\n\n")
		io.WriteString(w, "event: done\nid: 3\ndata: {\"seq\":3,\"state\":\"succeeded\"}\n\n")
	}))
	defer srv.Close()

	w, err := NewClient(srv.URL).Watch(context.Background(), "job-1")
	if err != nil {
		t.Fatalf("Watch after a short 429: %v", err)
	}
	defer w.Close()
	if ev, err := w.Next(); err != nil || ev.Data != "hi\n" || ev.Seq != 3 {
		t.Fatalf("first event = %+v, %v", ev, err)
	}
	if ev, err := w.Next(); err != nil || !ev.Done || ev.State != "succeeded" {
		t.Fatalf("done event = %+v, %v", ev, err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (1 throttled + 1 stream)", got)
	}
}

// TestWatchSurfaces429AfterRetryBudget: a throttle that outlasts the retry
// budget surfaces from Watch as a typed rate_limited APIError.
func TestWatchSurfaces429AfterRetryBudget(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, rateLimitedBody)
	}))
	defer srv.Close()

	w, err := NewClient(srv.URL).Watch(context.Background(), "job-1")
	if w != nil {
		w.Close()
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests || ae.Code != "rate_limited" {
		t.Fatalf("err = %v, want rate_limited *APIError", err)
	}
	if got := hits.Load(); got != int64(maxRateLimitRetries)+1 {
		t.Fatalf("server saw %d requests, want %d", got, maxRateLimitRetries+1)
	}
}

// TestWatchRetryWaitHonoursContext: a cancelled context ends a retry wait at
// once instead of sleeping out the Retry-After.
func TestWatchRetryWaitHonoursContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, rateLimitedBody)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := NewClient(srv.URL).Watch(ctx, "job-1")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("cancelled Watch returned after %v, want well under the 1s Retry-After", elapsed)
	}
}

// TestDownloadRetriesAfter429: Download rides the shared retry policy, so a
// throttled first attempt is retried and the caller gets the file's bytes.
func TestDownloadRetriesAfter429(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, rateLimitedBody)
			return
		}
		if r.URL.Path != "/api/files/content" || r.URL.Query().Get("path") != "/prog.mc" {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		io.WriteString(w, "func main() { }")
	}))
	defer srv.Close()

	data, err := NewClient(srv.URL).Download("/prog.mc")
	if err != nil || string(data) != "func main() { }" {
		t.Fatalf("Download = %q, %v", data, err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (1 throttled + 1 success)", got)
	}
}

// TestDownloadSurfacesAPIError: a failed download decodes the error
// envelope into an *APIError, like every other call.
func TestDownloadSurfacesAPIError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, `{"error":{"code":"not_found","message":"no such file: /gone.mc"}}`)
	}))
	defer srv.Close()

	_, err := NewClient(srv.URL).Download("/gone.mc")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound || ae.Code != "not_found" {
		t.Fatalf("Download error = %v, want *APIError not_found", err)
	}
}
