package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// queryResponse is the part of the /v1/query wire format the benchmark
// depends on.
type queryResponse struct {
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	RowCount  int      `json:"row_count"`
	LatencyUS int64    `json:"latency_us"`
	QueueMS   float64  `json:"queue_ms"`
}

// sample is one correct completion.
type sample struct {
	end     time.Duration // completion time since the phase started
	wallMS  float64       // client-side latency: request written → body read
	vtMS    float64       // engine latency in virtual time (wire latency_us)
	queueMS float64       // admission queue wait (wire queue_ms)
	bytes   int           // response body size
}

// tally is the outcome of one phase (warm-up, window or replay).
type tally struct {
	sent, shed, failed, badRequest, wrong int
	samples                               []sample // the ok completions
	firstErr                              error    // the first failure of any kind, for the log
}

func (t *tally) ok() int { return len(t.samples) }

func (t *tally) note(err error) {
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o tally) {
	t.sent += o.sent
	t.shed += o.shed
	t.failed += o.failed
	t.badRequest += o.badRequest
	t.wrong += o.wrong
	t.samples = append(t.samples, o.samples...)
	if o.firstErr != nil {
		t.note(o.firstErr)
	}
}

// session is one closed-loop client: one keep-alive connection that sends
// its next request when the previous response has been read and checked.
type session struct {
	w      *serveWorkload
	orc    *oracle
	url    string
	client *http.Client
	rng    *rand.Rand
	next   int           // next template; sessions start at seed-shuffled offsets
	rec    *spanRecorder // nil unless this is the traced replay
}

// newSessions builds n sessions whose request sequences depend on the seed
// alone.
func newSessions(n int, w *serveWorkload, orc *oracle, url string, seed int64) []*session {
	out := make([]*session, n)
	for i := range out {
		rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		out[i] = &session{
			w: w, orc: orc, url: url + "/v1/query", rng: rng,
			next: rng.Intn(len(w.templates)),
			client: &http.Client{
				Timeout:   requestTimeout,
				Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			},
		}
	}
	return out
}

// runPhase drives every session concurrently until stop reports true for it
// (asked before each request with the session's sent count) and returns the
// merged tally. All sessions have returned — nothing is in flight — when it
// does, so counters scraped before and after bracket exactly these requests.
func runPhase(sess []*session, stop func(sent int) bool) tally {
	start := now()
	tallies := make([]tally, len(sess))
	var wg sync.WaitGroup
	for i, s := range sess {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			t := &tallies[i]
			for !stop(t.sent) {
				s.request(t, start)
			}
		}(i, s)
	}
	wg.Wait()
	var total tally
	for _, t := range tallies {
		total.merge(t)
	}
	return total
}

// request sends the session's next statement and classifies the outcome.
func (s *session) request(t *tally, phaseStart time.Time) {
	fail := func(counter *int, err error) {
		*counter++
		t.note(err)
	}
	t.sent++
	tmpl := s.next
	s.next = (s.next + 1) % len(s.w.templates)
	body, err := json.Marshal(map[string]string{"tenant": "bench", "sql": s.w.statement(tmpl, s.rng)})
	if err != nil {
		fail(&t.failed, err)
		return
	}
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		fail(&t.failed, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	var finish func()
	if s.rec != nil {
		req, finish = s.rec.traceRequest(req, t.sent)
	}
	t0 := now()
	resp, err := s.client.Do(req)
	if err != nil {
		fail(&t.failed, err)
		return
	}
	raw, err := io.ReadAll(resp.Body)
	end := now()
	if finish != nil {
		finish()
	}
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail(&t.failed, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		counter := &t.failed
		switch resp.StatusCode {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			counter = &t.shed
		case http.StatusBadRequest:
			counter = &t.badRequest
		}
		fail(counter, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw)))
		return
	}
	var qr queryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		fail(&t.failed, fmt.Errorf("decoding response: %w", err))
		return
	}
	if err := s.orc.check(tmpl, &qr); err != nil {
		fail(&t.wrong, fmt.Errorf("wrong result for %q: %w", s.w.templates[tmpl], err))
		return
	}
	t.samples = append(t.samples, sample{
		end:     end.Sub(phaseStart),
		wallMS:  ms(end.Sub(t0)),
		vtMS:    float64(qr.LatencyUS) / 1000,
		queueMS: qr.QueueMS,
		bytes:   len(raw),
	})
}
