package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"

	"robustdb"
)

// answer is one statement's expected result in canonical cells: every number
// a float64 (what encoding/json decodes the wire's numbers to; exact for the
// benchmark's values, all far below 2^53) and every string a string.
type answer struct {
	columns []string
	rows    [][]any
	ordered bool // the statement has ORDER BY: rows compare as a sequence, else as a multiset
	hash    uint64
}

// oracle holds the expected answer of every template of a serve workload,
// computed in-process on the same database (same SF, rows and seed) with the
// serial CPU-only strategy — the repo's reference semantics, independent of
// placement, the server and its encoder.
type oracle struct {
	answers []answer
}

func newOracle(w *serveWorkload, seed int64) (*oracle, error) {
	db := robustdb.OpenSSB(robustdb.SSBConfig{SF: w.sf, RowsPerSF: w.rows, Seed: seed})
	dev := db.DeviceForWorkingSet(1)
	rng := rand.New(rand.NewSource(seed))
	o := &oracle{}
	for t := range w.templates {
		text := w.statement(t, rng)
		pl, err := db.SQL(text)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", text, err)
		}
		batch, _, err := db.Query(dev, robustdb.CPUOnly(), pl)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", text, err)
		}
		a := answer{
			columns: batch.ColumnNames(),
			rows:    make([][]any, batch.NumRows()),
			ordered: strings.Contains(strings.ToLower(text), " order by "),
		}
		readers := make([]func(int) (any, error), 0, batch.NumColumns())
		for _, c := range batch.Columns() {
			read, err := cellReader(c)
			if err != nil {
				return nil, err
			}
			readers = append(readers, read)
		}
		for r := range a.rows {
			a.rows[r] = make([]any, len(readers))
			for c, read := range readers {
				if a.rows[r][c], err = read(r); err != nil {
					return nil, err
				}
			}
		}
		if a.hash, err = hashResult(a.columns, a.rows, a.ordered); err != nil {
			return nil, err
		}
		o.answers = append(o.answers, a)
	}
	return o, nil
}

// cellReader returns a function reading one row of a result column as a
// canonical cell. The root package hands out result batches but no cell
// accessor, and this harness must not import robustdb/internal/column, so it
// reads the two shapes result columns have by reflection: an exported Values
// slice (dense int64, float64 and date columns) or a Value(i) method (string
// and encoded columns). Any other shape is an error, never a guess.
func cellReader(col any) (func(int) (any, error), error) {
	v := reflect.ValueOf(col)
	if m := v.MethodByName("Value"); m.IsValid() && m.Type().NumIn() == 1 && m.Type().NumOut() == 1 {
		return func(i int) (any, error) {
			return canonical(m.Call([]reflect.Value{reflect.ValueOf(i)})[0].Interface())
		}, nil
	}
	if v.Kind() == reflect.Pointer && v.Elem().Kind() == reflect.Struct {
		if f := v.Elem().FieldByName("Values"); f.IsValid() && f.Kind() == reflect.Slice {
			return func(i int) (any, error) { return canonical(f.Index(i).Interface()) }, nil
		}
	}
	return nil, fmt.Errorf("oracle: cannot read cells of result column type %T", col)
}

func canonical(cell any) (any, error) {
	switch c := cell.(type) {
	case int64:
		return float64(c), nil
	case int32:
		return float64(c), nil
	case float64:
		return c, nil
	case string:
		return c, nil
	}
	return nil, fmt.Errorf("oracle: unexpected cell type %T", cell)
}

// FNV-1a, written out because hash.Hash's Write returns an error the repo's
// errdrop lint rule would make every call site handle.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime // terminator: "ab","c" and "a","bc" differ
}

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v >> (8 * i) & 0xff)) * fnvPrime
	}
	return h
}

// hashResult folds a result into one number. Rows are hashed one by one and
// combined in sequence when the statement orders them, or by wrapping
// addition — which no row order changes — when it does not.
func hashResult(columns []string, rows [][]any, ordered bool) (uint64, error) {
	total := fnvOffset
	for _, c := range columns {
		total = fnvString(total, c)
	}
	for _, row := range rows {
		h := fnvOffset
		for _, cell := range row {
			switch c := cell.(type) {
			case float64:
				if c == 0 {
					c = 0 // -0 and +0 are one value
				}
				h = fnvUint64(h^'n', math.Float64bits(c))
			case string:
				h = fnvString(h^'s', c)
			default:
				return 0, fmt.Errorf("unexpected cell type %T", cell)
			}
		}
		if ordered {
			total = total*fnvPrime + h
		} else {
			total += h
		}
	}
	return total + uint64(len(rows)), nil
}

// check compares one decoded response for template t against the expected
// answer: by hash on the hot path, cell by cell to name the difference when
// the hash differs.
func (o *oracle) check(t int, resp *queryResponse) error {
	want := &o.answers[t]
	if resp.RowCount != len(resp.Rows) {
		return fmt.Errorf("row_count %d but %d rows", resp.RowCount, len(resp.Rows))
	}
	got, err := hashResult(resp.Columns, resp.Rows, want.ordered)
	if err != nil {
		return err
	}
	if got == want.hash {
		return nil
	}
	return want.diff(resp)
}

// diff names the first difference between the expected answer and resp.
func (a *answer) diff(resp *queryResponse) error {
	if !reflect.DeepEqual(a.columns, resp.Columns) {
		return fmt.Errorf("columns %v, want %v", resp.Columns, a.columns)
	}
	if len(resp.Rows) != len(a.rows) {
		return fmt.Errorf("%d rows, want %d", len(resp.Rows), len(a.rows))
	}
	if a.ordered {
		for i := range a.rows {
			if !reflect.DeepEqual(a.rows[i], resp.Rows[i]) {
				return fmt.Errorf("row %d is %v, want %v", i, resp.Rows[i], a.rows[i])
			}
		}
	}
	// Multiset comparison: count the expected rows, then consume them.
	counts := make(map[string]int, len(a.rows))
	for _, row := range a.rows {
		counts[fmt.Sprintf("%#v", row)]++
	}
	for _, row := range resp.Rows {
		key := fmt.Sprintf("%#v", row)
		if counts[key] == 0 {
			return fmt.Errorf("unexpected row %v", row)
		}
		counts[key]--
	}
	return fmt.Errorf("result hash differs from the expected answer")
}
