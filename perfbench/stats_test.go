package main

import (
	"io"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gauntlet/internal/obs"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.1, 1.2, 9.9, 4.4, 2.0}, [3]float64{1.6, 3.1, 7.15}},
	} {
		got, err := quartiles(c.in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if d := got[i] - c.want[i]; d > 1e-9 || d < -1e-9 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
}

func TestRelSpread(t *testing.T) {
	got, err := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; got != want {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, -1}, {10, -1}, {11, 9}, {100, 90}, {128, 92}, {1000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// At the percentile returned, at least ten samples lie beyond the
	// nearest-rank value, and one percentile higher there are fewer.
	for n := 11; n <= 500; n++ {
		p := tailPercentile(n)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		beyond := func(p int) int {
			v := percentile(xs, float64(p))
			k := 0
			for _, x := range xs {
				if x > v {
					k++
				}
			}
			return k
		}
		if beyond(p) < 10 || (p < 99 && beyond(p+1) >= 10) {
			t.Fatalf("n=%d: p%d has %d beyond, p%d has %d", n, p, beyond(p), p+1, beyond(p+1))
		}
	}
}

func TestWithinBound(t *testing.T) {
	for _, c := range []struct {
		base, cur float64
		better    string
		bound     float64
		want      bool
	}{
		{100, 110, "lower", 0.1, true},
		{100, 110.5, "lower", 0.1, false},
		{100, 50, "lower", 0.1, true},
		{100, 90, "higher", 0.1, true},
		{100, 89, "higher", 0.1, false},
		{100, 150, "higher", 0.1, true},
	} {
		got, err := withinBound(c.base, c.cur, c.better, c.bound)
		if err != nil || got != c.want {
			t.Errorf("withinBound(%v, %v, %s, %v) = %v, %v; want %v", c.base, c.cur, c.better, c.bound, got, err, c.want)
		}
	}
	if _, err := withinBound(1, 1, "faster", 0.1); err == nil {
		t.Error("unknown direction: want an error")
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"programs_per_s", "commit_ms.p90", "validate.query.cache-hit.count", "9lives", "a"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/name", "colon:x", "pct%", "ünï", long} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// TestSpecMatchesMetrics checks that BENCHMARK.json declares exactly the
// metrics the benchmark prints, with the same units, and that every
// name in it is legal.
func TestSpecMatchesMetrics(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd([]float64{1}, []float64{1}, []float64{1}, []float64{1})
	ins := &instruments{reg: obs.NewRegistry()}
	r := &rep{wall: time.Second}
	layer := workloads[0].layerMetrics(r, r, &layerRun{}, ins, 0, 0)
	for _, c := range []struct {
		kind  string
		spec  []specMetric
		print map[string]metric
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layer}} {
		declared := map[string]string{}
		for _, m := range c.spec {
			if !validName(m.Name) {
				t.Errorf("%s: illegal name %q", c.kind, m.Name)
			}
			declared[m.Name] = m.Unit
		}
		for name, m := range c.print {
			if u, ok := declared[name]; !ok || u != m.Unit {
				t.Errorf("%s: printed %s [%s] is declared with unit %q (declared: %v)", c.kind, name, m.Unit, u, ok)
			}
		}
		if got, want := slices.Sorted(maps.Keys(declared)), slices.Sorted(maps.Keys(c.print)); !slices.Equal(got, want) {
			t.Errorf("%s: declared %d metrics, printed %d", c.kind, len(got), len(want))
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is not declared", w.name)
		}
	}
}

func TestCompareRefusesMismatchedStamps(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, st stamp) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, &result{Stamp: st, summary: summary{Correct: true}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := stamp{GOMAXPROCS: 2, NProc: 2, CPUModel: "cpu A", GoVersion: "go1.24.0", Rev: "git:a", Workload: "validate-only", Seed: 1}
	for _, change := range []func(*stamp){
		func(s *stamp) { s.CPUModel = "cpu B" },
		func(s *stamp) { s.GOMAXPROCS = 4 },
		func(s *stamp) { s.Seed = 2 },
	} {
		other := base
		change(&other)
		err := compareResults(io.Discard, write("base.json", base), write("other.json", other))
		if err == nil || !strings.Contains(err.Error(), "refusing") {
			t.Errorf("compare %+v with %+v: err = %v, want a refusal", base, other, err)
		}
	}
	other := base
	other.Rev = "git:b"
	if m := base.mismatch(other); m != "" {
		t.Errorf("results differing only in revision are comparable, got mismatch %q", m)
	}
}
