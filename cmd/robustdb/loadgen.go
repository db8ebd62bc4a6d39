package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"robustdb/internal/server"
)

// loadgenSQL is the statement mix -loadgen offers: a scan aggregate, a
// filtered aggregate, a grouped aggregate, and a join — a spread of light
// and heavy work over the SSB schema every served database answers.
var loadgenSQL = []string{
	"SELECT SUM(lo_revenue) AS revenue FROM lineorder",
	"SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder WHERE lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25",
	"SELECT lo_quantity, COUNT(*) AS orders FROM lineorder GROUP BY lo_quantity",
	"SELECT d_year, SUM(lo_revenue) AS revenue FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year",
}

// runLoadgen offers open-loop load at the configured rate against the front
// door at url and prints the outcome: arrivals are scheduled by rate
// regardless of completions, so offered load can exceed capacity — the
// regime the admission controller exists for. SIGINT/SIGTERM ends the run
// early; outstanding requests still complete and are counted.
func runLoadgen(o *options, log *slog.Logger, stdout io.Writer) error {
	tenants, err := parseTenantMix(o.tenantMix)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.LogAttrs(ctx, slog.LevelInfo, "offering load",
		slog.String("component", "loadgen"),
		slog.String("url", o.loadgen),
		slog.Float64("rate_qps", o.rate),
		slog.Duration("duration", o.duration),
		slog.Int("tenants", len(tenants)))
	res, err := server.RunLoadgen(ctx, server.LoadgenConfig{
		URL:        o.loadgen,
		SQL:        loadgenSQL,
		Tenants:    tenants,
		Rate:       o.rate,
		Duration:   o.duration,
		DeadlineMS: o.deadline.Milliseconds(),
		Seed:       o.seed,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%-14s %10s %10s %10s %10s %12s\n",
		"offered", "skipped", "admitted", "shed", "failed", "bad-request")
	fmt.Fprintf(stdout, "%-14d %10d %10d %10d %10d %12d\n",
		res.Offered, res.Skipped, res.Admitted, res.Shed, res.Failed, res.BadRequest)
	fmt.Fprintf(stdout, "wall latency of admitted:    p50=%v p99=%v\n",
		res.WallP50.Round(10*time.Microsecond), res.WallP99.Round(10*time.Microsecond))
	fmt.Fprintf(stdout, "virtual latency of admitted: p50=%v p99=%v\n",
		res.VirtualP50.Round(10*time.Microsecond), res.VirtualP99.Round(10*time.Microsecond))
	if len(res.ShedByCode) > 0 {
		codes := make([]string, 0, len(res.ShedByCode))
		for code := range res.ShedByCode {
			codes = append(codes, code)
		}
		sort.Strings(codes)
		fmt.Fprintf(stdout, "shed by code:")
		for _, code := range codes {
			fmt.Fprintf(stdout, " %s=%d", code, res.ShedByCode[code])
		}
		fmt.Fprintln(stdout)
	}
	// One machine-readable line for scripts and the CI smoke job.
	fmt.Fprintf(stdout, "loadgen: offered=%d skipped=%d admitted=%d shed=%d failed=%d bad_request=%d shed_rate=%.3f\n",
		res.Offered, res.Skipped, res.Admitted, res.Shed, res.Failed, res.BadRequest, res.ShedRate())
	return nil
}

// parseTenantMix parses "name:share[:priority]" comma lists, e.g.
// "gold:3:1,bronze:1". Share weights arrivals; priority raises the tenant's
// queries in the admission queue.
func parseTenantMix(spec string) ([]server.TenantMix, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil // loadgen defaults to one "default" tenant
	}
	var mix []server.TenantMix
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 3 || fields[0] == "" {
			return nil, fmt.Errorf("tenant mix entry %q: want name:share[:priority]", part)
		}
		share, err := strconv.Atoi(fields[1])
		if err != nil || share < 1 {
			return nil, fmt.Errorf("tenant mix entry %q: share must be a positive integer", part)
		}
		prio := 0
		if len(fields) == 3 {
			prio, err = strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("tenant mix entry %q: priority must be an integer", part)
			}
		}
		mix = append(mix, server.TenantMix{Name: fields[0], Share: share, Priority: prio})
	}
	return mix, nil
}
