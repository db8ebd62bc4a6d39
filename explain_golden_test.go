package robustdb

// Golden-file test of the EXPLAIN plan document: the planner and the size
// estimator are deterministic over a seeded catalog, so the JSON payload for
// a pinned statement must stay byte-identical run to run. The golden file is
// also the committed example of the EXPLAIN JSON schema — a schema change
// shows up as a reviewable diff here. Regenerate after an intentional change
// with:
//
//	go test -run TestExplainGolden -update-golden .

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenExplainSQL joins, filters in the code domain, aggregates over dictionary
// group keys, and sorts with a limit — one statement that exercises every node
// kind the document can carry.
const goldenExplainSQL = "EXPLAIN SELECT c_nation, SUM(lo_revenue) AS rev " +
	"FROM lineorder, customer " +
	"WHERE lo_custkey = c_custkey AND lo_discount BETWEEN 1 AND 3 " +
	"GROUP BY c_nation ORDER BY rev DESC LIMIT 5"

func goldenExplainPayload(t *testing.T) []byte {
	t.Helper()
	db := OpenSSB(SSBConfig{SF: 1, RowsPerSF: 2000, Seed: 42}).Compressed()
	doc, err := db.ExplainSQL(goldenExplainSQL)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func TestExplainGolden(t *testing.T) {
	got := goldenExplainPayload(t)
	path := filepath.Join("testdata", "explain_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("explain document drifted from %s (%d vs %d bytes); if intended, regenerate with -update-golden",
			path, len(got), len(want))
	}
}

// TestExplainGoldenShape proves the golden document carries what the CI smoke
// asserts over HTTP: a versioned tree whose scan nodes each report their
// compression mode, with at least one scan on an actually-compressed column.
func TestExplainGoldenShape(t *testing.T) {
	var doc struct {
		Version int             `json:"version"`
		Root    json.RawMessage `json:"root"`
	}
	if err := json.Unmarshal(goldenExplainPayload(t), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != 1 {
		t.Fatalf("version = %d, want 1", doc.Version)
	}
	type node struct {
		Kind        string `json:"kind"`
		Compression string `json:"compression"`
		Placement   string `json:"placement"`
		Children    []node `json:"children"`
	}
	var root node
	if err := json.Unmarshal(doc.Root, &root); err != nil {
		t.Fatal(err)
	}
	var scans, compressed int
	var walk func(n node)
	walk = func(n node) {
		if n.Placement == "" {
			t.Errorf("%s node missing placement", n.Kind)
		}
		if n.Kind == "scan" {
			scans++
			if n.Compression == "" {
				t.Errorf("scan node missing compression mode")
			}
			if n.Compression != "plain" {
				compressed++
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	if scans == 0 {
		t.Fatal("no scan nodes in golden document")
	}
	if compressed == 0 {
		t.Fatal("no scan over a compressed column: the golden catalog should be .Compressed()")
	}
}
