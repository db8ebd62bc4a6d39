package cost

import "testing"

// The chunk sizer's contract: chunks stay within [MinChunkRows, totalRows],
// large tables always get at least depth+1 chunks (the pipeline cannot
// overlap otherwise), and the fixed per-chunk overhead stays amortized.
func TestPipelineChunkRowsBounds(t *testing.T) {
	params := DefaultParams()
	learner := NewLearner(params)
	for _, totalRows := range []int{1, 512, 1024, 100_000, 10_000_000} {
		for _, depth := range []int{0, 1, 2, 4, 8} {
			rows := PipelineChunkRows(learner, params, Selection, totalRows, 24, 16, depth)
			if rows <= 0 {
				t.Fatalf("rows=%d depth=%d: sizer returned %d", totalRows, depth, rows)
			}
			if rows > totalRows {
				t.Fatalf("rows=%d depth=%d: chunk %d exceeds table", totalRows, depth, rows)
			}
			if totalRows >= MinChunkRows && rows < MinChunkRows {
				t.Fatalf("rows=%d depth=%d: chunk %d below MinChunkRows", totalRows, depth, rows)
			}
			d := depth
			if d < 1 {
				d = 1
			}
			if totalRows/(d+1) >= MinChunkRows {
				k := (totalRows + rows - 1) / rows
				if k < d+1 {
					t.Fatalf("rows=%d depth=%d: only %d chunks, pipeline cannot fill", totalRows, depth, k)
				}
			}
		}
	}
	if PipelineChunkRows(learner, params, Selection, 0, 24, 16, 2) != 0 {
		t.Fatal("empty table must size to zero")
	}
}
