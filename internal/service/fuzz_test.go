package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSubmit drives arbitrary methods and bodies through the /submit
// handler. No input may panic it, and every response must carry one of the
// statuses the API documents for /submit. The runner is held, so admitted
// jobs never execute: once the small queue fills, well-formed requests are
// answered 429, which keeps the retained job set bounded however long the
// fuzzer runs. The seed corpus is in testdata/fuzz/FuzzSubmit.
func FuzzSubmit(f *testing.F) {
	s := New(Config{Workers: 1, Concurrency: 1, QueueDepth: 2, TraceCapacity: -1})
	s.holdRunner = make(chan struct{}) // never released: no job runs
	methods := []string{http.MethodPost, http.MethodGet, http.MethodPut, http.MethodDelete, http.MethodHead}
	allowed := map[int]bool{
		http.StatusAccepted:              true,
		http.StatusBadRequest:            true,
		http.StatusMethodNotAllowed:      true,
		http.StatusRequestEntityTooLarge: true,
		http.StatusTooManyRequests:       true,
		http.StatusServiceUnavailable:    true,
	}
	f.Fuzz(func(t *testing.T, method uint8, body []byte) {
		req := httptest.NewRequest(methods[int(method)%len(methods)], "/submit", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.handleSubmit(rec, req)
		if !allowed[rec.Code] {
			t.Fatalf("status %d for %s %q: %s", rec.Code, req.Method, body, rec.Body.String())
		}
		if len(body) > maxSubmitBytes && req.Method == http.MethodPost && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%d-byte body answered %d, want 413", len(body), rec.Code)
		}
	})
}
