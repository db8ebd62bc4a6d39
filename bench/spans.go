package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptrace"
	"os"
	"sync"
	"time"

	"robustdb/bench/ladderspec"
)

// spanRecorder keeps spans in memory until the run ends. End-to-end numbers
// are measured without one; only the traced pass records.
type spanRecorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []ladderspec.Span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: now()} }

func (r *spanRecorder) add(parent, request int, layer, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, ladderspec.Span{
		ID: id, Parent: parent, Request: request, Layer: layer, Name: name,
		StartNS: int64(start.Sub(r.origin)), EndNS: int64(end.Sub(r.origin)),
	})
	return id
}

// adopt appends spans recorded by another process whose clock started offset
// after this recorder's.
func (r *spanRecorder) adopt(spans []ladderspec.Span, offset time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range spans {
		s.ID = len(r.spans) + 1
		s.StartNS += int64(offset)
		s.EndNS += int64(offset)
		r.spans = append(r.spans, s)
	}
}

// traceRequest attaches net/http/httptrace hooks to req and returns the
// request to send plus a function to call once the body has been read; it
// records client.request ⊃ write / first-byte / read-body.
func (r *spanRecorder) traceRequest(req *http.Request, request int) (*http.Request, func()) {
	var mu sync.Mutex // the hooks run on the transport's goroutines
	var wrote, firstByte time.Time
	start := now()
	trace := &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) {
			mu.Lock()
			wrote = now()
			mu.Unlock()
		},
		GotFirstResponseByte: func() {
			mu.Lock()
			firstByte = now()
			mu.Unlock()
		},
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
	return req, func() {
		end := now()
		mu.Lock()
		w, f := wrote, firstByte
		mu.Unlock()
		root := r.add(0, request, "client", "client.request", start, end)
		if w.IsZero() || f.IsZero() {
			return
		}
		r.add(root, request, "client", "client.write", start, w)
		r.add(root, request, "http", "http.first_byte", w, f)
		r.add(root, request, "client", "client.read_body", f, end)
	}
}

// write stores the spans as JSON Lines.
func (r *spanRecorder) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
