package engine_test

// Zero-copy operator outputs alias base-table storage (column.GatherRange),
// which is sound only while nothing writes to a column after it is built —
// the invariant internal/column's package comment states. This test pins it
// from the outside: every base column of an SSB catalog, raw and compressed,
// must hold the same bits after whole workloads have run over it under every
// strategy, with parallel kernels and the pipelined executor on.

import (
	"hash/fnv"
	"math"
	"testing"

	"robustdb/internal/column"
	"robustdb/internal/exec"
	"robustdb/internal/ssb"
	"robustdb/internal/table"
	"robustdb/internal/workload"
)

// columnChecksum hashes everything a reader of the column can observe.
func columnChecksum(t *testing.T, c column.Column) uint64 {
	t.Helper()
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	h.Write([]byte(c.Name()))
	word(uint64(c.Type()))
	word(uint64(c.Len()))
	word(uint64(c.Bytes()))
	switch c := c.(type) {
	case *column.StringColumn:
		for _, s := range c.Dict {
			h.Write([]byte(s))
		}
		for _, code := range c.Codes {
			word(uint64(code))
		}
	case *column.Float64Column:
		for _, v := range c.Values {
			word(math.Float64bits(v))
		}
	default:
		read, ok := column.Reader[int64](c, nil)
		if !ok {
			t.Fatalf("column %s: no checksum for %T", c.Name(), c)
		}
		for _, v := range read(0, c.Len(), nil) {
			word(uint64(v))
		}
	}
	return h.Sum64()
}

func catalogChecksums(t *testing.T, cat *table.Catalog) map[table.ColumnID]uint64 {
	t.Helper()
	sums := map[table.ColumnID]uint64{}
	for _, name := range cat.TableNames() {
		tbl := cat.MustTable(name)
		for _, c := range tbl.Columns() {
			sums[table.MakeColumnID(name, c.Name())] = columnChecksum(t, c)
		}
	}
	return sums
}

func TestWorkloadsLeaveBaseColumnsUntouched(t *testing.T) {
	raw := ssb.Generate(ssb.Config{SF: 1, RowsPerSF: 20000, Seed: 3}) // fact table spans several morsels
	var queries []workload.Query
	for _, q := range ssb.Queries() {
		queries = append(queries, workload.Query{Name: q.Name, Plan: q.Plan})
	}
	spec := workload.Spec{Queries: queries, Users: 4, TotalQueries: len(queries)}
	for label, cat := range map[string]*table.Catalog{"raw": raw, "compressed": raw.Compressed()} {
		before := catalogChecksums(t, cat)
		cfg := exec.Config{
			CacheBytes: cat.TotalBytes() / 2, HeapBytes: cat.TotalBytes(),
			KernelWorkers: 2, PipelineDepth: 2, PipelineCoExec: true,
		}
		for _, strat := range workload.AllStrategies() {
			if _, res, err := workload.Run(cat, cfg, strat, spec); err != nil || res.QueriesRun != int64(len(queries)) {
				t.Fatalf("%s/%s: ran %d queries, err %v", label, strat.Label, res.QueriesRun, err)
			}
			for id, sum := range catalogChecksums(t, cat) {
				if sum != before[id] {
					t.Fatalf("%s/%s: base column %s changed under the workload", label, strat.Label, id)
				}
			}
		}
	}
}
