package obs

import (
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"robustdb/internal/column"
	"robustdb/internal/trace"
)

// namePrefix namespaces every exported series.
const namePrefix = "robustdb_"

// WritePrometheus renders a registry snapshot in the Prometheus text
// exposition format (version 0.0.4). The mapping from registry series to
// exposition series is fixed:
//
//   - Counter N            → robustdb_<n>_total           (TYPE counter)
//   - DurationCounter N    → robustdb_<n>_seconds_total   (TYPE counter)
//   - Gauge N              → robustdb_<n>                 (TYPE gauge)
//   - FloatGauge N         → robustdb_<n>                 (TYPE gauge)
//   - Histogram N          → robustdb_<n>_seconds         (TYPE histogram, Durations scale)
//   - Histogram N          → robustdb_<n>                 (TYPE histogram, Ratios scale)
//
// where <n> is SanitizeMetricName(N). Registry keys composed with
// trace.LabeledName (`Base{k="v"}`) split back into base name + label set:
// every labeled series of one base renders under a single HELP/TYPE header
// as one metric family, which is what Prometheus requires. A histogram
// renders its power-of-two buckets as cumulative `_bucket` series: on the
// Durations scale with `le` edges and the sum in seconds, on the Ratios scale
// dimensionless (no unit suffix); the top bucket absorbs overflow and is
// exported as +Inf. Output is sorted by
// family name, then by label set, so equal snapshots render byte-identical
// text. The returned error is the first write error, if any.
func WritePrometheus(w io.Writer, s trace.Snapshot) error {
	type sample struct {
		labels string // raw label pairs without braces; "" for unlabeled
		body   func(w io.Writer, full, labels string) error
	}
	type family struct {
		name    string // exposition name without the robustdb_ prefix
		typ     string
		orig    string // registry base name, for the HELP line
		samples []sample
	}
	fams := make(map[string]*family)
	add := func(key, suffix, typ string, body func(io.Writer, string, string) error) {
		base, labels := trace.SplitLabeledName(key)
		name := SanitizeMetricName(base) + suffix
		f, ok := fams[name]
		if !ok {
			f = &family{name: name, typ: typ, orig: base}
			fams[name] = f
		}
		f.samples = append(f.samples, sample{labels: labels, body: body})
	}

	for name, v := range s.Counters {
		v := v
		add(name, "_total", "counter", func(w io.Writer, full, labels string) error {
			_, err := fmt.Fprintf(w, "%s %d\n", sampleName(full, labels), v)
			return err
		})
	}
	for name, d := range s.Durations {
		secs := d.Seconds()
		add(name, "_seconds_total", "counter", func(w io.Writer, full, labels string) error {
			_, err := fmt.Fprintf(w, "%s %s\n", sampleName(full, labels), formatFloat(secs))
			return err
		})
	}
	for name, v := range s.Gauges {
		v := v
		add(name, "", "gauge", func(w io.Writer, full, labels string) error {
			_, err := fmt.Fprintf(w, "%s %d\n", sampleName(full, labels), v)
			return err
		})
	}
	for name, v := range s.FloatGauges {
		v := v
		add(name, "", "gauge", func(w io.Writer, full, labels string) error {
			_, err := fmt.Fprintf(w, "%s %s\n", sampleName(full, labels), formatFloat(v))
			return err
		})
	}
	for name, h := range s.Histograms {
		h := h
		suffix := ""
		if h.Scale == trace.Durations {
			suffix = "_seconds"
		}
		add(name, suffix, "histogram", func(w io.Writer, full, labels string) error {
			return writeHistogram(w, full, labels, h)
		})
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		full := namePrefix + f.name
		if _, err := fmt.Fprintf(w, "# HELP %s Registry series %s.\n# TYPE %s %s\n",
			full, f.orig, full, f.typ); err != nil {
			return err
		}
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].labels < f.samples[j].labels })
		for _, sm := range f.samples {
			if err := sm.body(w, full, sm.labels); err != nil {
				return err
			}
		}
	}
	return nil
}

// sampleName composes one sample's name with its label set.
func sampleName(full, labels string) string {
	if labels == "" {
		return full
	}
	return full + "{" + labels + "}"
}

// mergeLabels appends extra (`le="0.001"`) to a possibly-empty label set.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// BuildInfo identifies the running binary on the exposition surface.
type BuildInfo struct {
	// GoVersion is the toolchain that built the binary ("go1.22.1").
	GoVersion string
	// Revision is the VCS revision baked into the build ("" outside VCS
	// builds).
	Revision string
	// Modified is "true" when the build had uncommitted changes.
	Modified string
}

// ReadBuildInfo extracts the BuildInfo of the running binary.
func ReadBuildInfo() BuildInfo {
	info := BuildInfo{}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info.GoVersion = bi.GoVersion
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.modified":
			info.Modified = s.Value
		}
	}
	return info
}

// WriteExposition renders the full /metrics payload: the process-level
// series — robustdb_build_info (constant 1, identity in labels) and
// robustdb_process_uptime_seconds — followed by the registry snapshot via
// WritePrometheus. The process series come first in a fixed order, so equal
// inputs still render byte-identical text.
func WriteExposition(w io.Writer, s trace.Snapshot, info BuildInfo, uptime time.Duration) error {
	if _, err := fmt.Fprintf(w,
		"# HELP %sbuild_info Build identity of the running binary (constant 1).\n"+
			"# TYPE %sbuild_info gauge\n"+
			"%sbuild_info{go_version=%q,revision=%q,modified=%q} 1\n",
		namePrefix, namePrefix, namePrefix,
		info.GoVersion, info.Revision, info.Modified); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"# HELP %sprocess_uptime_seconds Wall-clock seconds since process start.\n"+
			"# TYPE %sprocess_uptime_seconds gauge\n"+
			"%sprocess_uptime_seconds %s\n",
		namePrefix, namePrefix, namePrefix,
		formatFloat(uptime.Seconds())); err != nil {
		return err
	}
	// Decompression is metered process-wide at the column layer (the
	// registry is per-engine, but encodings decode wherever a column
	// flattens), so the series sits with the process-level block. A
	// compressed database serving compressed execution keeps this near
	// zero; growth means late materialization is being defeated somewhere.
	if _, err := fmt.Fprintf(w,
		"# HELP %sdecompress_bytes_total Bytes materialized by decoding compressed columns (process-wide).\n"+
			"# TYPE %sdecompress_bytes_total counter\n"+
			"%sdecompress_bytes_total %d\n",
		namePrefix, namePrefix, namePrefix,
		column.DecompressedBytes()); err != nil {
		return err
	}
	return WritePrometheus(w, s)
}

// writeHistogram emits cumulative buckets, sum, and count for one histogram
// sample: on the Durations scale edges and sum convert from nanoseconds to
// seconds, on the Ratios scale they are written as they are. The top bucket
// is +Inf. labels are the sample's own labels, merged with the `le` edge on
// bucket lines.
func writeHistogram(w io.Writer, full, labels string, h trace.HistogramSnapshot) error {
	unit := func(v float64) float64 { return v }
	if h.Scale == trace.Durations {
		unit = func(ns float64) float64 { return time.Duration(ns).Seconds() }
	}
	var cum int64
	for i, b := range h.Buckets {
		cum += b
		le := "+Inf"
		if i < len(h.Buckets)-1 {
			le = formatFloat(unit(h.Scale.UpperEdge(i)))
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n",
			full, mergeLabels(labels, `le="`+le+`"`), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s %s\n%s %d\n",
		sampleName(full+"_sum", labels), formatFloat(unit(h.Sum)),
		sampleName(full+"_count", labels), h.Count)
	return err
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// representation that round-trips.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// SanitizeMetricName converts a registry series name (Go-style CamelCase)
// into a Prometheus snake_case name. A word boundary falls before an upper
// case letter that follows a lower case letter (GpuRun → gpu_run) or that
// ends an acronym — an upper case letter followed by a lower case one
// (GPURunTime → gpu_run_time, H2DBytes → h2d_bytes). Characters outside
// [a-zA-Z0-9_] map to '_'.
func SanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 4)
	rs := []rune(name)
	for i, r := range rs {
		switch {
		case r >= 'A' && r <= 'Z':
			if i > 0 {
				prev := rs[i-1]
				nextLower := i+1 < len(rs) && rs[i+1] >= 'a' && rs[i+1] <= 'z'
				if (prev >= 'a' && prev <= 'z') || (prev >= 'A' && prev <= 'Z' && nextLower) {
					b.WriteByte('_')
				}
			}
			b.WriteRune(r - 'A' + 'a')
		case (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') || r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
