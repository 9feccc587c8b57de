package optimize

import (
	"math"
	"testing"
)

func TestSchemeSelectorsRegistry(t *testing.T) {
	names := []string{"coverage", "reach", "energy", "efficiency"}
	sels := SchemeSelectors()
	if len(sels) != len(names) {
		t.Fatalf("%d selectors, want %d", len(sels), len(names))
	}
	for i, want := range names {
		if sels[i].Name != want || sels[i].Description == "" || sels[i].Better == nil {
			t.Fatalf("selector %d = %+v, want name %q with description and Better", i, sels[i].Name, want)
		}
	}
}

func TestBestSchemeObjectives(t *testing.T) {
	ms := []SchemeMetrics{
		{Coverage: 0.9, ReachAtL: 0.5, Broadcasts: 100, SuccessRate: 0.3}, // flooding-ish
		{Coverage: 0.8, ReachAtL: 0.7, Broadcasts: 20, SuccessRate: 0.6},  // tuned
		{Coverage: 0.8, ReachAtL: 0.7, Broadcasts: 30, SuccessRate: 0.5},  // tied on reach
	}
	sels := SchemeSelectors()
	for i, tc := range []struct {
		objective string
		want      int
	}{
		{"coverage", 0},
		{"reach", 1}, // first-wins over the index-2 tie
		{"energy", 1},
		{"efficiency", 1}, // 0.8/20 beats 0.9/100 and 0.8/30
	} {
		sel := sels[i]
		if sel.Name != tc.objective {
			t.Fatalf("selector %d is %q, want %q", i, sel.Name, tc.objective)
		}
		if got := BestScheme(sel, ms); got != tc.want {
			t.Errorf("BestScheme(%s) = %d, want %d", tc.objective, got, tc.want)
		}
	}
	if got := BestScheme(SchemeSelectors()[0], nil); got != -1 {
		t.Errorf("BestScheme on empty slice = %d, want -1", got)
	}
}

func TestSchemeEfficiencyGuards(t *testing.T) {
	if e := (SchemeMetrics{Coverage: 0.5, Broadcasts: 0}).Efficiency(); e != 0 {
		t.Errorf("zero-broadcast efficiency = %g, want 0 (not Inf)", e)
	}
	if e := (SchemeMetrics{Coverage: math.NaN(), Broadcasts: 10}).Efficiency(); e != 0 {
		t.Errorf("NaN-coverage efficiency = %g, want 0", e)
	}
	if e := (SchemeMetrics{Coverage: 0.8, Broadcasts: 20}).Efficiency(); math.Abs(e-0.04) > 1e-12 {
		t.Errorf("efficiency = %g, want 0.04", e)
	}
}
