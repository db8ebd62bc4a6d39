package main

import (
	"strings"
	"testing"
)

// response renders an expected answer the way the wire would deliver it.
func response(a *answer) *queryResponse {
	resp := &queryResponse{Columns: append([]string(nil), a.columns...), RowCount: len(a.rows)}
	for _, row := range a.rows {
		resp.Rows = append(resp.Rows, append([]any(nil), row...))
	}
	return resp
}

func TestOracleCatchesCorruptedResponses(t *testing.T) {
	w := &serveWorkload{name: "test", sf: 1, rows: 6000, templates: []string{
		loadgenSQL[2], // grouped, unordered: rows compare as a multiset
		ssbSQL[1],     // ORDER BY: rows compare as a sequence
	}}
	orc, err := newOracle(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	for tmpl, a := range orc.answers {
		if len(a.rows) < 2 {
			t.Fatalf("template %d: %d rows, the test needs at least two", tmpl, len(a.rows))
		}
		if a.ordered != (tmpl == 1) {
			t.Fatalf("template %d: ordered = %v", tmpl, a.ordered)
		}
		if err := orc.check(tmpl, response(&a)); err != nil {
			t.Errorf("template %d: the expected answer itself is rejected: %v", tmpl, err)
		}
	}

	corruptions := []struct {
		name    string
		tmpl    int
		corrupt func(*queryResponse)
		want    string // substring of the error; "" = must be accepted
	}{
		{"one cell off by one", 0, func(r *queryResponse) { r.Rows[1][1] = r.Rows[1][1].(float64) + 1 }, "unexpected row"},
		{"one cell off by one, ordered", 1, func(r *queryResponse) {
			last := len(r.Rows[0]) - 1
			r.Rows[0][last] = r.Rows[0][last].(float64) + 1
		}, "row 0"},
		{"row dropped", 0, func(r *queryResponse) { r.Rows = r.Rows[1:]; r.RowCount-- }, "rows, want"},
		{"row duplicated over another", 0, func(r *queryResponse) { r.Rows[0] = r.Rows[1] }, "unexpected row"},
		{"row_count disagrees", 0, func(r *queryResponse) { r.RowCount++ }, "row_count"},
		{"column renamed", 0, func(r *queryResponse) { r.Columns[0] = "x" }, "columns"},
		{"string where a number belongs", 0, func(r *queryResponse) { r.Rows[0][0] = "1" }, "unexpected row"},
		{"nested cell", 0, func(r *queryResponse) { r.Rows[0][0] = []any{1.0} }, "cell type"},
		{"rows swapped, unordered statement", 0, func(r *queryResponse) { r.Rows[0], r.Rows[1] = r.Rows[1], r.Rows[0] }, ""},
		{"rows swapped, ordered statement", 1, func(r *queryResponse) { r.Rows[0], r.Rows[1] = r.Rows[1], r.Rows[0] }, "row 0"},
	}
	for _, c := range corruptions {
		resp := response(&orc.answers[c.tmpl])
		c.corrupt(resp)
		err := orc.check(c.tmpl, resp)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}
