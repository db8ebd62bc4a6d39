package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"robustdb/internal/column"
	"robustdb/internal/engine"
	"robustdb/internal/exec"
	"robustdb/internal/ssb"
	"robustdb/internal/table"
	"robustdb/internal/workload"
)

// toResponse and cellValue are the reference appendResult is held to: every
// cell boxed into an any, the document written by encoding/json.
func toResponse(res Result) QueryResponse {
	cols := res.Batch.Columns()
	out := QueryResponse{
		Columns:   make([]string, len(cols)),
		LatencyUS: res.Latency.Microseconds(),
		QueueMS:   float64(res.QueueWait) / float64(time.Millisecond),
	}
	n := res.Batch.NumRows()
	out.RowCount = n
	for i, c := range cols {
		out.Columns[i] = c.Name()
	}
	out.Rows = make([][]any, n)
	for r := 0; r < n; r++ {
		row := make([]any, len(cols))
		for i, c := range cols {
			row[i] = cellValue(c, r)
		}
		out.Rows[r] = row
	}
	return out
}

func cellValue(c column.Column, i int) any {
	switch col := c.(type) {
	case *column.Int64Column:
		return col.Values[i]
	case *column.Float64Column:
		return col.Values[i]
	case *column.DateColumn:
		return col.Values[i]
	case *column.StringColumn:
		return col.Value(i)
	case *column.CompressedInt64Column:
		return col.Value(i)
	case *column.CompressedDateColumn:
		return col.Value(i)
	default:
		return cellValue(column.Materialized(c), i)
	}
}

// sameAsReference fails unless appendResult writes what encoding/json writes
// for the reference response of the result build returns. Each encoder gets a
// batch of its own, so that a pending column is forced by the encoder under
// test.
func sameAsReference(t *testing.T, label string, build func() Result) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(toResponse(build())); err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	got := appendResult([]byte("stale bytes"), build())[len("stale bytes"):]
	if !bytes.Equal(got, want.Bytes()) {
		at := 0
		for at < len(got) && at < len(want.Bytes()) && got[at] == want.Bytes()[at] {
			at++
		}
		t.Fatalf("%s: encodings differ at byte %d:\n got  …%s\n want …%s", label, at,
			clip(got, at), clip(want.Bytes(), at))
	}
}

func clip(b []byte, at int) []byte { return b[max(at-40, 0):min(at+40, len(b))] }

func TestResultEncodingIsEncodingJSON(t *testing.T) {
	const n = 300 // three bit-packed blocks, the last one short
	ints, floats := make([]int64, n), make([]float64, n)
	dates, strs := make([]int32, n), make([]string, n)
	for i := range ints {
		ints[i] = int64(i*i*7919) - 300_000
		floats[i] = float64(i)/7 - 20
		dates[i] = int32(i*13 - 100)
		strs[i] = fmt.Sprintf("city %02d", i%17)
	}
	ints[0], ints[1] = math.MinInt64, math.MaxInt64
	plain := func() []column.Column {
		return []column.Column{
			column.NewInt64("lo_revenue", ints),
			column.NewFloat64("revenue", floats),
			column.NewDate("lo_orderdate", dates),
			column.NewString("c_city", strs),
		}
	}
	packed := func() []column.Column {
		return []column.Column{
			column.CompressInt64(column.NewInt64("lo_partkey", ints)),
			column.CompressDate(column.NewDate("d_datekey", dates)),
		}
	}
	arms := func() *engine.Batch { return engine.MustNewBatch(append(plain(), packed()...)...) }
	for _, qw := range []time.Duration{0, 1, 1500 * time.Microsecond, 123_456_789} {
		sameAsReference(t, fmt.Sprintf("every arm, queue wait %v", qw), func() Result {
			return Result{Batch: arms(), Latency: 1_234_567 * time.Nanosecond, QueueWait: qw}
		})
	}
	scattered := []int32{299, 0, 17, 17, 150, 128, 127, 1, 256}
	sameAsReference(t, "pending columns of a gathered batch", func() Result {
		b := arms().Gather(column.Positions(scattered))
		return Result{Batch: b, Latency: time.Millisecond}
	})

	quirks := []string{
		"", "plain", `quote " and \ backslash`, "<script>a && b</script>",
		"ctl \x00\x01\b\f\n\r\t\x1b\x1f\x7f", "bad \xff\xfe utf-8", "\xc3", "cut \xe2\x80",
		"separators \xe2\x80\xa8 and \xe2\x80\xa9", "ünïcödé 日本 \xf0\x9f\x98\x80",
	}
	sameAsReference(t, "strings", func() Result {
		return Result{Batch: engine.MustNewBatch(column.NewString(`name "<&>"`+"\x01", quirks))}
	})

	two53 := float64(1 << 53)
	cells := []float64{
		0, math.Copysign(0, -1), 1e-6, -1e-6, 1e-7, -1e-7, 1e20, 1e21, -1e21,
		two53, -two53, two53 + 2, -(two53 + 2), two53 - 1, 0.1, -0.1, 1.5, 3, -3,
		123456789, 1e15, 12345.678, 1.234e-5, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 2.5e-8, 1e100, 1.7e308 / 3,
	}
	sameAsReference(t, "floats", func() Result {
		return Result{Batch: engine.MustNewBatch(column.NewFloat64("x", cells))}
	})
	// What encoding/json refuses is null.
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if got := string(appendFloat(nil, f)); got != "null" {
			t.Errorf("appendFloat(%v) = %s, want null", f, got)
		}
	}

	sameAsReference(t, "no rows", func() Result {
		b := arms().Gather(column.PosList{})
		return Result{Batch: b}
	})
	sameAsReference(t, "no columns", func() Result { return Result{Batch: engine.MustNewBatch()} })
	sameAsReference(t, "rows without columns", func() Result {
		b, err := arms().Project()
		if err != nil {
			t.Fatal(err)
		}
		return Result{Batch: b}
	})

	t.Run("http", func(t *testing.T) {
		statements := []string{
			// cmd/robustdb's -loadgen mix.
			"SELECT SUM(lo_revenue) AS revenue FROM lineorder",
			"SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder WHERE lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25",
			"SELECT lo_quantity, COUNT(*) AS orders FROM lineorder GROUP BY lo_quantity",
			"SELECT d_year, SUM(lo_revenue) AS revenue FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year",
			// The SSB texts of internal/sql's tests.
			"select sum(lo_extendedprice * lo_discount) as revenue from lineorder, date where lo_orderdate = d_datekey and d_year = 1993 and lo_discount between 1 and 3 and lo_quantity < 25",
			"select d_year, p_brand1, sum(lo_revenue) as sum_revenue from lineorder, date, part, supplier where lo_orderdate = d_datekey and lo_partkey = p_partkey and lo_suppkey = s_suppkey and p_category = 'MFGR#12' and s_region = 'AMERICA' group by d_year, p_brand1 order by d_year, p_brand1",
			"select c_city, s_city, d_year, sum(lo_revenue) as revenue from customer, lineorder, supplier, date where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_orderdate = d_datekey and c_city in ('UNITED KI1', 'UNITED KI5') and s_city in ('UNITED KI1', 'UNITED KI5') and d_year between 1992 and 1997 group by c_city, s_city, d_year order by d_year asc, revenue desc",
			"select c_nation, count(*) as customers, avg(c_custkey) as avg_key from customer where c_region = 'ASIA' group by c_nation order by customers desc, c_nation limit 3",
			"select s_city, s_nation from supplier where s_region = 'EUROPE' order by s_city",
			// One statement per ad-hoc GROUP BY shape.
			"SELECT lo_orderdate, SUM(lo_revenue) AS revenue FROM lineorder WHERE lo_orderkey < 1500000000 GROUP BY lo_orderdate",
			"SELECT lo_partkey, SUM(lo_revenue) AS revenue FROM lineorder WHERE lo_orderkey < 1500000000 GROUP BY lo_partkey",
			"SELECT lo_custkey, SUM(lo_revenue) AS revenue FROM lineorder WHERE lo_orderkey < 1500000000 GROUP BY lo_custkey",
		}
		raw := ssb.Generate(ssb.Config{SF: 1, RowsPerSF: 2000, Seed: 7})
		for _, cat := range []*table.Catalog{raw, raw.Compressed()} {
			strat := workload.DataDrivenChopping()
			e, err := workload.NewEngine(cat, exec.Config{CacheBytes: cat.TotalBytes() / 2, HeapBytes: cat.TotalBytes()}, strat, nil)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Engine: e, Placer: strat.Placer, Catalog: cat})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			for _, q := range statements {
				body := postQuery(t, ts.URL, q)
				// The served result again, in process, with the latency and queue
				// wait the response reports: the reference must then write the
				// same document.
				var stamp struct {
					LatencyUS int64   `json:"latency_us"`
					QueueMS   float64 `json:"queue_ms"`
				}
				if err := json.Unmarshal(body, &stamp); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				res, err := s.SubmitSQL(context.Background(), "default", 0, q, 0)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				res.Latency = time.Duration(stamp.LatencyUS) * time.Microsecond
				res.QueueWait = time.Duration(math.Round(stamp.QueueMS * float64(time.Millisecond)))
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(toResponse(res)); err != nil {
					t.Fatalf("%s: reference: %v", q, err)
				}
				if !bytes.Equal(body, want.Bytes()) {
					t.Errorf("%s:\n served    %.300s\n reference %.300s", q, body, want.Bytes())
				}
			}
			ts.Close()
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// postQuery POSTs q to /v1/query and returns the 200 body, whose length must
// be the Content-Length the server announced.
func postQuery(t *testing.T, url, q string) []byte {
	t.Helper()
	req, err := json.Marshal(QueryRequest{SQL: q})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", q, resp.StatusCode, body)
	}
	if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(body)) {
		t.Fatalf("%s: Content-Length %q for a %d-byte body", q, cl, len(body))
	}
	if !strings.HasSuffix(string(body), "}\n") {
		t.Fatalf("%s: body does not end in a newline", q)
	}
	return body
}

// TestWriteJSONRefusalIsTyped500: a payload encoding/json refuses is answered
// with the typed internal envelope, not a 200 with an empty body.
func TestWriteJSONRefusalIsTyped500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"q_error": math.Inf(1)})
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusInternalServerError || e.Code != "internal" {
		t.Fatalf("status %d, body %q (%v); want 500 with code internal", rec.Code, rec.Body, err)
	}
}

// TestResultEncodingAllocationsDoNotGrowWithRows: into a warm buffer,
// encoding a result allocates the same few times however many rows it has.
func TestResultEncodingAllocationsDoNotGrowWithRows(t *testing.T) {
	result := func(rows int) Result {
		keys, sums := make([]int64, rows), make([]float64, rows)
		for i := range keys {
			keys[i] = int64(i*37 + 1)
			sums[i] = float64(i) * 1234.5 // whole and fractional in turn
		}
		b := engine.MustNewBatch(column.NewInt64("lo_partkey", keys), column.NewFloat64("revenue", sums))
		return Result{Batch: b, Latency: 812 * time.Microsecond, QueueWait: 3 * time.Microsecond}
	}
	allocs := func(res Result) float64 {
		buf := appendResult(nil, res)
		return testing.AllocsPerRun(20, func() { buf = appendResult(buf[:0], res) })
	}
	small, large := allocs(result(23)), allocs(result(2300))
	if large != small || large > 8 {
		t.Fatalf("appendResult allocates %v times for 23 rows and %v for 2300; want the same, at most 8", small, large)
	}
}
