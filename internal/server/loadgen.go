package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"robustdb/internal/admission"
)

// TenantMix is one tenant of a load-generator run.
type TenantMix struct {
	// Name is the tenant id sent with every query.
	Name string
	// Share is the relative arrival weight (≥1).
	Share int
	// Priority is sent as the per-query priority.
	Priority int
}

// LoadgenConfig describes one open-loop load-generation run: arrivals are
// scheduled by rate, independent of completions, so offered load can exceed
// capacity — the regime the admission controller exists for.
type LoadgenConfig struct {
	// URL is the front door driven over HTTP ("http://host:port"). Required.
	URL string
	// SQL is the query mix, picked uniformly per arrival and sent verbatim.
	// Required.
	SQL []string
	// Tenants is the tenant mix; empty means one "default" tenant.
	Tenants []TenantMix
	// Rate is the offered arrival rate in queries/second (required > 0).
	Rate float64
	// Duration bounds the run (required > 0).
	Duration time.Duration
	// DeadlineMS is the per-query deadline sent with each request (0 =
	// server default).
	DeadlineMS int64
	// Seed makes tenant/query picks reproducible (default 1).
	Seed int64
}

// loadgenTimeout bounds one HTTP-mode request.
const loadgenTimeout = 30 * time.Second

// LoadgenResult aggregates one load-generation run.
type LoadgenResult struct {
	// Offered is the number of arrivals the generator produced.
	Offered int64
	// Skipped counts arrivals dropped because 4×rate (at least 64) requests
	// were already outstanding: the target was so far behind that the
	// generator refused to accumulate more goroutines.
	Skipped int64
	// Admitted / Shed / Failed / BadRequest classify the outcomes: Admitted
	// queries completed, Shed were rejected with typed admission statuses,
	// Failed are engine-side errors on admitted queries, BadRequest are
	// 4xx compile errors.
	Admitted, Shed, Failed, BadRequest int64
	// ShedByCode breaks Shed down by typed code ("overloaded", …).
	ShedByCode map[string]int64
	// WallP50 / WallP99 are quantiles of the wall-clock latency of admitted
	// queries (queue wait + execution + transport).
	WallP50, WallP99 time.Duration
	// VirtualP50 / VirtualP99 are quantiles of the engine's virtual-time
	// latency of admitted queries, as the responses report it.
	VirtualP50, VirtualP99 time.Duration
}

// shedRate returns the shed fraction of offered load.
func (r *LoadgenResult) ShedRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Offered)
}

// RunLoadgen drives one open-loop run and aggregates the outcome. The
// context cancels the run early (outstanding requests still finish).
func RunLoadgen(ctx context.Context, cfg LoadgenConfig) (*LoadgenResult, error) {
	if cfg.URL == "" || len(cfg.SQL) == 0 {
		return nil, errors.New("loadgen: need a URL and SQL")
	}
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: need positive rate and duration (got %v, %v)", cfg.Rate, cfg.Duration)
	}
	tenants := cfg.Tenants
	if len(tenants) == 0 {
		tenants = []TenantMix{{Name: "default", Share: 1}}
	}
	var wheel []TenantMix // share-weighted pick wheel
	for _, t := range tenants {
		share := t.Share
		if share < 1 {
			share = 1
		}
		for i := 0; i < share; i++ {
			wheel = append(wheel, t)
		}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	maxOut := max(int(cfg.Rate*4), 64)
	client := &http.Client{Timeout: loadgenTimeout}

	res := &LoadgenResult{ShedByCode: make(map[string]int64)}
	var mu sync.Mutex // guards ShedByCode and the latency slices
	var wallLat, virtLat []time.Duration
	var outstanding atomic.Int64
	var wg sync.WaitGroup

	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.NewTimer(cfg.Duration)
	defer deadline.Stop()

arrivals:
	for {
		select {
		case <-ctx.Done():
			break arrivals
		case <-deadline.C:
			break arrivals
		case <-ticker.C:
		}
		res.Offered++
		if outstanding.Load() >= int64(maxOut) {
			res.Skipped++
			continue
		}
		tenant := wheel[rng.Intn(len(wheel))]
		sql := cfg.SQL[rng.Intn(len(cfg.SQL))]
		outstanding.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer outstanding.Add(-1)
			start := time.Now()
			virt, err := httpQuery(ctx, client, cfg.URL, QueryRequest{
				Tenant:     tenant.Name,
				SQL:        sql,
				Priority:   tenant.Priority,
				DeadlineMS: cfg.DeadlineMS,
			})
			wall := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				res.Admitted++
				wallLat = append(wallLat, wall)
				virtLat = append(virtLat, virt)
			case isShed(err):
				res.Shed++
				res.ShedByCode[shedCode(err)]++
			case errors.Is(err, ErrBadQuery):
				res.BadRequest++
			default:
				res.Failed++
			}
		}()
	}
	wg.Wait()
	res.WallP50, res.WallP99 = Quantiles(wallLat)
	res.VirtualP50, res.VirtualP99 = Quantiles(virtLat)
	return res, nil
}

// isShed reports whether the error is a typed admission rejection (any
// code), as opposed to an engine failure on an admitted query.
func isShed(err error) bool {
	var ae *admission.Error
	return errors.As(err, &ae)
}

// shedCode extracts the typed code for the breakdown.
func shedCode(err error) string {
	var ae *admission.Error
	if errors.As(err, &ae) {
		return string(ae.Code)
	}
	return "unknown"
}

// Quantiles returns (p50, p99) of the samples (0,0 when empty): quantile q is
// the element at index ⌊q·(n−1)⌋ of the sorted sample, so the median of an
// even count is the lower of the middle two.
func Quantiles(samples []time.Duration) (p50, p99 time.Duration) {
	if len(samples) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return at(0.50), at(0.99)
}

// httpQuery submits one query over HTTP and converts typed wire statuses
// back into the matching admission errors, so results classify by the
// admission code the server decided.
func httpQuery(ctx context.Context, client *http.Client, base string, q QueryRequest) (time.Duration, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, err
	}
	if resp.StatusCode == http.StatusOK {
		// Only the latency is read: the rows are not decoded.
		var out struct {
			LatencyUS int64 `json:"latency_us"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			return 0, fmt.Errorf("loadgen: bad response body: %w", err)
		}
		return time.Duration(out.LatencyUS) * time.Microsecond, nil
	}
	var we ErrorResponse
	if err := json.Unmarshal(raw, &we); err != nil {
		return 0, fmt.Errorf("loadgen: status %d with unparseable body", resp.StatusCode)
	}
	switch we.Code {
	case string(admission.CodeOverloaded), string(admission.CodeTenantLimit),
		string(admission.CodeQueueTimeout), string(admission.CodeDraining),
		string(admission.CodeCanceled):
		return 0, &admission.Error{
			Code:       admission.Code(we.Code),
			Reason:     we.Error,
			RetryAfter: time.Duration(we.RetryAfterMS) * time.Millisecond,
		}
	case "bad-request":
		return 0, fmt.Errorf("%w: %s", ErrBadQuery, we.Error)
	default:
		return 0, fmt.Errorf("loadgen: status %d: %s (%s)", resp.StatusCode, we.Error, we.Code)
	}
}
