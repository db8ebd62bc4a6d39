package server

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"robustdb/internal/column"
)

// resultBufs recycles the buffers /v1/query documents are encoded into; one
// grown past maxPooledResult is left to the collector rather than pinned.
var resultBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResult = 1 << 20

// appendResult appends the /v1/query document of res to buf — QueryResponse's
// fields in order, then the newline json.Encoder ends a value with — writing
// each cell straight from its column's storage. The bytes are the ones
// encoding/json writes for the same response (TestResultEncodingIsEncodingJSON),
// with one addition: a non-finite float, which encoding/json refuses, is
// null, as JSON.stringify writes it.
func appendResult(buf []byte, res Result) []byte {
	cols := res.Batch.Columns()
	buf = append(buf, `{"columns":[`...)
	for i, c := range cols {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendString(buf, c.Name())
	}
	buf = append(buf, `],"rows":[`...)
	n := res.Batch.NumRows()
	for r := 0; r < n; r++ {
		if r > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for i, c := range cols {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendCell(buf, c, r)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `],"row_count":`...)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, `,"latency_us":`...)
	buf = strconv.AppendInt(buf, res.Latency.Microseconds(), 10)
	buf = append(buf, `,"queue_ms":`...)
	buf = appendFloat(buf, float64(res.QueueWait)/float64(time.Millisecond))
	return append(buf, "}\n"...)
}

// appendCell appends row r of c; bit-packed cells are read in place, without
// decoding their column.
func appendCell(buf []byte, c column.Column, r int) []byte {
	switch col := c.(type) {
	case *column.Int64Column:
		return strconv.AppendInt(buf, col.Values[r], 10)
	case *column.Float64Column:
		return appendFloat(buf, col.Values[r])
	case *column.DateColumn:
		return strconv.AppendInt(buf, int64(col.Values[r]), 10)
	case *column.StringColumn:
		return appendString(buf, col.Value(r))
	case *column.CompressedInt64Column:
		return strconv.AppendInt(buf, col.Value(r), 10)
	case *column.CompressedDateColumn:
		return strconv.AppendInt(buf, int64(col.Value(r)), 10)
	}
	panic(fmt.Sprintf("server: no wire encoding for column %s (%T)", c.Name(), c))
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in 'f' form unless |f| < 1e-6 or |f| ≥ 1e21,
// where it is 'e' form with the exponent's leading zero dropped. A whole
// number below 2^53 — every SUM over an integer column — takes the integer
// path, which prints the same digits; −0 does not (it prints "-0"). A
// non-finite f is null.
func appendFloat(buf []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs < 1<<53 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(buf, i, 10)
		}
	} else if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(buf, "null"...)
	}
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		buf = strconv.AppendFloat(buf, f, 'e', -1, 64)
		if n := len(buf); buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
		return buf
	}
	return strconv.AppendFloat(buf, f, 'f', -1, 64)
}

// hexDigits spells the \u escapes.
const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped as encoding/json escapes
// one: '"' and '\\' backslashed; \b, \f, \n, \r and \t by name; every other
// control character, '<', '>' and '&' as \u00XX; U+2028 and U+2029 as
// \u2028 and \u2029; and each byte of invalid UTF-8 as \ufffd.
func appendString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '"', '\\':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			buf = append(append(buf, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			buf = append(append(buf, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(buf, s[start:]...), '"')
}
