// Package column implements the typed, null-free columnar storage primitives
// the engine is built on: fixed-width integer and float columns, date
// columns, and dictionary-encoded string columns, together with selection
// vectors (position lists) used to represent intermediate results.
//
// The layout follows CoGaDB's column store: every attribute of a table is a
// dense array; operators materialize their outputs either as new columns or
// as position lists over existing columns.
//
// Immutability: a column is never written to once it has been built. The
// exported Values, Codes and Dict slices are exported to be read; no code
// outside a constructor assigns to their elements, and nothing inside this
// package rewrites packed words in place. Zero-copy results
// rely on it — GatherRange and Reader hand out views that alias a
// column's storage, base-table storage included, so a write through any of
// them would change every batch that shares it. The engine's alias-safety
// test checksums a whole catalog around full workloads to keep this true.
package column

import (
	"fmt"
	"sort"
)

// Type enumerates the storage types a column can have.
type Type uint8

const (
	// Int64 is a 64-bit signed integer column (keys, quantities, money in cents).
	Int64 Type = iota
	// Float64 is a 64-bit floating point column.
	Float64
	// Date is a 32-bit date column encoded as days since 1992-01-01.
	Date
	// String is a dictionary-encoded string column.
	String
)

// String returns the lower-case name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case Date:
		return "date"
	case String:
		return "string"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Width returns the per-value storage width in bytes. Dictionary-encoded
// strings store a 32-bit code per row.
func (t Type) Width() int {
	switch t {
	case Int64, Float64:
		return 8
	case Date, String:
		return 4
	default:
		return 8
	}
}

// Column is the read interface shared by all column implementations.
// Columns are immutable once built (see the package comment); the execution
// engine never mutates base data, matching the read-only OLAP setting of the
// paper.
type Column interface {
	// Name returns the attribute name of the column.
	Name() string
	// Type returns the storage type.
	Type() Type
	// Len returns the number of rows.
	Len() int
	// Bytes returns the in-memory footprint in bytes. This is the number
	// the device cache, heap allocator, and bus simulator account with.
	Bytes() int64
	// Gather materializes the rows addressed by the position list into a
	// new column of the same type.
	Gather(pos []int32) Column
}

// Int64Column is a dense array of int64 values.
type Int64Column struct {
	name   string
	Values []int64
}

// NewInt64 wraps values (not copied) in an Int64Column named name.
func NewInt64(name string, values []int64) *Int64Column {
	return &Int64Column{name: name, Values: values}
}

// Name returns the attribute name.
func (c *Int64Column) Name() string { return c.name }

// Type returns Int64.
func (c *Int64Column) Type() Type { return Int64 }

// Len returns the number of rows.
func (c *Int64Column) Len() int { return len(c.Values) }

// Bytes returns the footprint in bytes.
func (c *Int64Column) Bytes() int64 { return int64(len(c.Values)) * 8 }

// Gather materializes the addressed rows into a new column.
func (c *Int64Column) Gather(pos []int32) Column {
	out := make([]int64, len(pos))
	for i, p := range pos {
		out[i] = c.Values[p]
	}
	return NewInt64(c.name, out)
}

// Float64Column is a dense array of float64 values.
type Float64Column struct {
	name   string
	Values []float64
}

// NewFloat64 wraps values (not copied) in a Float64Column named name.
func NewFloat64(name string, values []float64) *Float64Column {
	return &Float64Column{name: name, Values: values}
}

// Name returns the attribute name.
func (c *Float64Column) Name() string { return c.name }

// Type returns Float64.
func (c *Float64Column) Type() Type { return Float64 }

// Len returns the number of rows.
func (c *Float64Column) Len() int { return len(c.Values) }

// Bytes returns the footprint in bytes.
func (c *Float64Column) Bytes() int64 { return int64(len(c.Values)) * 8 }

// Gather materializes the addressed rows into a new column.
func (c *Float64Column) Gather(pos []int32) Column {
	out := make([]float64, len(pos))
	for i, p := range pos {
		out[i] = c.Values[p]
	}
	return NewFloat64(c.name, out)
}

// DateColumn stores dates as int32 days since an arbitrary epoch.
type DateColumn struct {
	name   string
	Values []int32
}

// NewDate wraps values (not copied) in a DateColumn named name.
func NewDate(name string, values []int32) *DateColumn {
	return &DateColumn{name: name, Values: values}
}

// Name returns the attribute name.
func (c *DateColumn) Name() string { return c.name }

// Type returns Date.
func (c *DateColumn) Type() Type { return Date }

// Len returns the number of rows.
func (c *DateColumn) Len() int { return len(c.Values) }

// Bytes returns the footprint in bytes.
func (c *DateColumn) Bytes() int64 { return int64(len(c.Values)) * 4 }

// Gather materializes the addressed rows into a new column.
func (c *DateColumn) Gather(pos []int32) Column {
	out := make([]int32, len(pos))
	for i, p := range pos {
		out[i] = c.Values[p]
	}
	return NewDate(c.name, out)
}

// StringColumn is a dictionary-encoded string column: a sorted dictionary of
// distinct values plus a dense array of 32-bit codes. Order-preserving
// encoding means range predicates can be evaluated on codes.
type StringColumn struct {
	name  string
	Dict  []string // sorted, distinct
	Codes []int32  // per-row index into Dict
}

// NewString dictionary-encodes values into a StringColumn named name.
// The dictionary is order-preserving (sorted), so <, <=, >, >= on codes
// agree with the string order of the values.
func NewString(name string, values []string) *StringColumn {
	seen := make(map[string]struct{}, 64)
	for _, v := range values {
		seen[v] = struct{}{}
	}
	dict := make([]string, 0, len(seen))
	for v := range seen {
		dict = append(dict, v)
	}
	sort.Strings(dict)
	code := make(map[string]int32, len(dict))
	for i, v := range dict {
		code[v] = int32(i)
	}
	codes := make([]int32, len(values))
	for i, v := range values {
		codes[i] = code[v]
	}
	return &StringColumn{name: name, Dict: dict, Codes: codes}
}

// NewStringFromDict builds a StringColumn from an existing sorted dictionary
// and code array. It is used by Gather and by the data generators, which know
// their domains up front.
func NewStringFromDict(name string, dict []string, codes []int32) *StringColumn {
	return &StringColumn{name: name, Dict: dict, Codes: codes}
}

// Name returns the attribute name.
func (c *StringColumn) Name() string { return c.name }

// Type returns String.
func (c *StringColumn) Type() Type { return String }

// Len returns the number of rows.
func (c *StringColumn) Len() int { return len(c.Codes) }

// Bytes returns the footprint in bytes: 4 bytes per row plus the dictionary.
func (c *StringColumn) Bytes() int64 {
	n := int64(len(c.Codes)) * 4
	for _, s := range c.Dict {
		n += int64(len(s))
	}
	return n
}

// Gather materializes the addressed rows into a new column sharing the
// dictionary.
func (c *StringColumn) Gather(pos []int32) Column {
	out := make([]int32, len(pos))
	for i, p := range pos {
		out[i] = c.Codes[p]
	}
	return NewStringFromDict(c.name, c.Dict, out)
}

// Value returns the string at row i.
func (c *StringColumn) Value(i int) string { return c.Dict[c.Codes[i]] }

// Code returns the dictionary code for s and whether s occurs in the
// dictionary at all.
func (c *StringColumn) Code(s string) (int32, bool) {
	i := sort.SearchStrings(c.Dict, s)
	if i < len(c.Dict) && c.Dict[i] == s {
		return int32(i), true
	}
	return int32(i), false
}

// LowerBound returns the smallest code whose dictionary entry is >= s.
// If every entry is < s the returned code equals len(Dict).
func (c *StringColumn) LowerBound(s string) int32 {
	return int32(sort.SearchStrings(c.Dict, s))
}
