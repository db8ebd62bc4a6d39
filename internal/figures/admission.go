package figures

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"robustdb/internal/admission"
	"robustdb/internal/exec"
	"robustdb/internal/faults"
	"robustdb/internal/obs"
	"robustdb/internal/server"
	"robustdb/internal/table"
	"robustdb/internal/workload"
)

// admissionPolicies are the compared strategies, in plot order.
var admissionPolicies = []admission.Policy{admission.FIFO, admission.Fair, admission.Detector}

// AdmissionOverload is the front-door extension figure: p50/p99 virtual
// latency of *admitted* queries and the shed rate as offered concurrency
// sweeps past the engine's admitted capacity, one series per admission
// policy (FIFO vs per-tenant fair vs detector-driven), plus the same sweep
// with fault injection enabled (the fleet-under-faults variant). It extends
// the paper's Figure 21 — which showed query-level admission control as a
// latency/throughput trade-off — to a multi-tenant shedding front door:
// past saturation the policies differ in *who* waits and *what* is shed,
// not in raw engine throughput.
func AdmissionOverload(o Options) []*Figure {
	cat := ssbCatalog(1, o.rowsPerSF(2000), o.Seed+41)
	offered := []int{2, 4, 8, 16}
	const capacity = 4

	latFig := &Figure{
		ID:     "admission-overload",
		Title:  "Admitted-query latency vs offered concurrency per admission policy",
		XLabel: "offered clients",
		YLabel: "virtual latency of admitted queries (ms)",
	}
	shedFig := &Figure{
		ID:     "admission-overload-shed",
		Title:  "Shed rate vs offered concurrency per admission policy",
		XLabel: "offered clients",
		YLabel: "shed fraction of offered queries (%)",
	}
	faultFig := &Figure{
		ID:     "admission-overload-faults",
		Title:  "Admitted p99 latency under overload with fault injection",
		XLabel: "offered clients",
		YLabel: "virtual latency of admitted queries (ms)",
	}
	for _, n := range offered {
		x := fmt.Sprintf("%d", n)
		latFig.X = append(latFig.X, x)
		shedFig.X = append(shedFig.X, x)
		faultFig.X = append(faultFig.X, x)
	}

	reps := o.reps(6)
	for _, policy := range admissionPolicies {
		var p50s, p99s, sheds, faultP99s []float64
		for _, n := range offered {
			lat, shed := admissionRun(cat, policy, capacity, n, reps, nil)
			p50, p99 := server.Quantiles(lat.admitted)
			p50s = append(p50s, ms(p50))
			p99s = append(p99s, ms(p99))
			sheds = append(sheds, 100*shed)

			inj := faults.New(faults.Config{
				Seed:             o.Seed + 97,
				AllocFailRate:    0.02,
				TransferFailRate: 0.02,
			})
			flat, _ := admissionRun(cat, policy, capacity, n, reps, inj)
			_, fp99 := server.Quantiles(flat.admitted)
			faultP99s = append(faultP99s, ms(fp99))
		}
		latFig.Series = append(latFig.Series,
			Series{Label: string(policy) + " p50", Y: p50s},
			Series{Label: string(policy) + " p99", Y: p99s})
		shedFig.Series = append(shedFig.Series, Series{Label: string(policy), Y: sheds})
		faultFig.Series = append(faultFig.Series, Series{Label: string(policy) + " p99", Y: faultP99s})
	}
	return []*Figure{latFig, shedFig, faultFig}
}

// admissionOutcome aggregates one (policy, offered) cell.
type admissionOutcome struct {
	admitted []time.Duration // virtual latencies of admitted queries
	offered  int
	shed     int
}

// admissionRun drives n closed-loop clients (4 tenants, round-robin query
// mix) against a fresh front door with the given policy and returns the
// admitted-latency sample plus the shed fraction. Untyped errors panic:
// the overload contract is typed errors only.
func admissionRun(c *table.Catalog, policy admission.Policy, capacity, clients, reps int, inj *faults.Injector) (admissionOutcome, float64) {
	strat := workload.DataDrivenChopping()
	dev := exec.Config{
		CacheBytes: c.TotalBytes() / 2,
		HeapBytes:  c.TotalBytes(),
		Faults:     inj,
	}
	e, err := workload.NewEngine(c, dev, strat, ssbWorkload())
	if err != nil {
		panic(fmt.Sprintf("figures: admission engine: %v", err))
	}
	reg := e.Metrics.Registry()
	s, err := server.New(server.Config{
		Engine:  e,
		Placer:  strat.Placer,
		Catalog: c,
		Admission: admission.Config{
			Policy:         policy,
			MaxConcurrent:  capacity,
			MaxQueue:       2 * capacity,
			MaxTenantQueue: 2 * capacity,
			Registry:       reg,
		},
	})
	if err != nil {
		panic(fmt.Sprintf("figures: admission server: %v", err))
	}
	sampler := obs.NewSampler(reg, []*obs.Detector{
		obs.NewThrashingDetector(),
		obs.NewContentionDetector(),
	}, nil)
	stopPressure := server.StartPressureLoop(s, sampler, 20*time.Millisecond)

	qs := ssbWorkload()
	out := admissionOutcome{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				res, err := s.Submit(context.Background(),
					fmt.Sprintf("tenant%d", cl%4), 0, qs[(cl+i)%len(qs)].Plan, 5*time.Second)
				mu.Lock()
				out.offered++
				switch {
				case err == nil:
					out.admitted = append(out.admitted, res.Latency)
				case isTyped(err):
					out.shed++
				default:
					mu.Unlock()
					panic(fmt.Sprintf("figures: untyped overload error: %v", err))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	stopPressure()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		panic(fmt.Sprintf("figures: admission drain: %v", err))
	}
	if used := e.Heap.Used(); used != 0 {
		panic(fmt.Sprintf("figures: admission run leaked %d device-heap bytes", used))
	}
	shedFrac := 0.0
	if out.offered > 0 {
		shedFrac = float64(out.shed) / float64(out.offered)
	}
	return out, shedFrac
}

// isTyped reports whether the error is part of the overload contract.
func isTyped(err error) bool {
	var ae *admission.Error
	return errors.As(err, &ae) || errors.Is(err, exec.ErrDeadlineExceeded)
}
