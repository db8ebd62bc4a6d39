package figures

import "testing"

// TestAdmissionOverloadShape runs the front-door figure on a tiny database
// and checks what holds on every goroutine schedule: the structural contract
// (three figures, full x coverage), a reported latency in every cell, and per
// cell at 4× capacity that every offered query was either admitted and run to
// completion or shed with a typed error, with no device heap left behind
// (admissionRun panics on an untyped error and on a leak). How much is shed
// depends on how many of the clients arrive before the first queries finish,
// which the scheduler decides; that a full queue sheds is checked without
// goroutines, per policy, by TestFIFOQueueFullRejectsNewcomer,
// TestFairDisplacesLowestPriorityWhenFull and
// TestDetectorPressureShrinksAndSheds in internal/admission.
func TestAdmissionOverloadShape(t *testing.T) {
	figs := AdmissionOverload(Options{RowsPerSF: 800, Reps: 2, Seed: 5})
	if len(figs) != 3 {
		t.Fatalf("want 3 figures, got %d", len(figs))
	}
	lat, shed, flt := figs[0], figs[1], figs[2]
	if lat.ID != "admission-overload" || shed.ID != "admission-overload-shed" || flt.ID != "admission-overload-faults" {
		t.Fatalf("unexpected figure ids: %s, %s, %s", lat.ID, shed.ID, flt.ID)
	}
	for _, f := range figs {
		if len(f.X) != 4 {
			t.Fatalf("%s: want 4 x positions, got %d", f.ID, len(f.X))
		}
		for _, s := range f.Series {
			if len(s.Y) != len(f.X) {
				t.Fatalf("%s/%s: ragged series: %d y for %d x", f.ID, s.Label, len(s.Y), len(f.X))
			}
		}
	}
	if len(lat.Series) != 6 || len(shed.Series) != 3 || len(flt.Series) != 3 {
		t.Fatalf("series counts: lat %d, shed %d, faults %d", len(lat.Series), len(shed.Series), len(flt.Series))
	}
	for _, s := range shed.Series {
		for i, y := range s.Y {
			if y < 0 || y >= 100 {
				t.Errorf("policy %s: shed rate %v %% at x=%s", s.Label, y, shed.X[i])
			}
		}
	}
	cat := ssbCatalog(1, 800, 5+41)
	for _, policy := range admissionPolicies {
		const clients, reps = 16, 2
		out, _ := admissionRun(cat, policy, 4, clients, reps, nil)
		if out.offered != clients*reps || len(out.admitted)+out.shed != out.offered || len(out.admitted) == 0 {
			t.Errorf("policy %s: offered %d (want %d), admitted %d, shed %d", policy, out.offered, clients*reps, len(out.admitted), out.shed)
		}
	}
	// Admitted latency must be reported (nonzero) everywhere: admitted
	// queries execute to completion even past saturation.
	for _, s := range lat.Series {
		for i, y := range s.Y {
			if y <= 0 {
				t.Errorf("%s: zero admitted latency at x=%s", s.Label, lat.X[i])
			}
		}
	}
}
