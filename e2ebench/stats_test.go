package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so quantile must sort
	}
	return xs
}

func TestQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		p       float64
		want    float64 // value reported, from samples 1..n
		wantGot float64 // quantile actually reported
	}{
		{n: 2000, p: 0.99, want: 1980, wantGot: 0.99},
		{n: 1000, p: 0.99, want: 990, wantGot: 0.99},
		{n: 999, p: 0.99, want: 989, wantGot: 989.0 / 999}, // p99 would leave 9 beyond
		{n: 100, p: 0.99, want: 90, wantGot: 0.90},
		{n: 100, p: 0.5, want: 50, wantGot: 0.5},
		{n: 5, p: 0.5, want: 1, wantGot: 0.2}, // too few samples: the minimum
	} {
		v, got, n := quantile(seq(tc.n), tc.p)
		if v != tc.want || got != tc.wantGot || n != tc.n {
			t.Errorf("quantile(n=%d, p=%v) = %v at q%v (n=%d), want %v at q%v", tc.n, tc.p, v, got, n, tc.want, tc.wantGot)
		}
		if beyond := tc.n - int(v); tc.n > minTail && beyond < minTail {
			t.Errorf("n=%d p=%v: only %d samples beyond the reported value", tc.n, tc.p, beyond)
		}
	}
	if v, got, n := quantile(nil, 0.5); v != 0 || got != 0 || n != 0 {
		t.Errorf("empty quantile = %v, %v, %v", v, got, n)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{120, 150}}, 70},
		{"disjoint children", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping children count once", []interval{{110, 150}, {140, 160}}, 50},
		{"nested child", []interval{{110, 190}, {120, 130}}, 20},
		{"children clipped to the parent", []interval{{50, 120}, {190, 250}}, 70},
		{"child outside the parent", []interval{{10, 90}, {210, 300}}, 100},
		{"child covering the parent", []interval{{0, 300}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimesLinksByRequestID(t *testing.T) {
	spans := []span{
		{id: 1, name: "client.estimate", iv: interval{0, 100}},
		{parent: 1, name: "httpserve/estimate", iv: interval{10, 90}},
		{id: 2, name: "client.estimate", iv: interval{100, 150}},
		{parent: 2, name: "httpserve/estimate", iv: interval{110, 120}},
		{parent: 2, name: "httpserve/estimate", iv: interval{130, 140}}, // a retry
		{id: 3, name: "client.feedback", iv: interval{150, 200}},
	}
	got := selfTimes(spans, "client.estimate")
	want := []float64{20e-6, 30e-6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestWaitsMatchTheServingEvaluation(t *testing.T) {
	spans := []span{
		{name: "serve.request", iv: interval{0, 100}},
		{name: "serve.request", iv: interval{5, 100}},
		{name: "kde.batch", iv: interval{40, 95}, n: 2},
		// A request that waited out one evaluation before riding the next.
		{name: "serve.request", iv: interval{100, 300}},
		{name: "kde.batch", iv: interval{110, 150}, n: 1},
		{name: "kde.batch", iv: interval{200, 290}, n: 1},
	}
	wait, sizes := waits(spans, "serve.request", "kde.batch")
	if want := []float64{40e-6, 35e-6, 100e-6}; !reflect.DeepEqual(wait, want) {
		t.Errorf("waits = %v, want %v", wait, want)
	}
	if want := []float64{2, 1, 1}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("sizes = %v, want %v", sizes, want)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, name := range []string{"setup_s", "kde.ns_per_row_dim", "ablation.k1.estimate_ms_p50", "9lives", "a-b"} {
		if !metricName.MatchString(name) {
			t.Errorf("%q rejected", name)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, name := range []string{"", "_lead", ".lead", "has space", "slash/name", "pct%", "ünïcode", long} {
		if metricName.MatchString(name) {
			t.Errorf("%q accepted", name)
		}
	}
	for _, name := range append(append([]string{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(name) {
			t.Errorf("reported metric %q outside the grammar", name)
		}
	}
}

func TestReportRefusesBadAndDuplicateNames(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := report{}
	r.value("ok", 1, "s")
	mustPanic("duplicate", func() { r.value("ok", 2, "s") })
	mustPanic("bad name", func() { r.value("bad name", 1, "s") })
}

// The benchmark's own metric lists and BENCHMARK.json must name the same
// metrics, or BENCHMARK.json promises metrics the result line lacks.
func TestBenchmarkFileMatchesMetricLists(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	if got, want := names(spec.EndToEnd), sorted(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end = %v, want %v", got, want)
	}
	if got, want := names(spec.PerLayer), sorted(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer = %v, want %v", got, want)
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	if got, want := names(spec.Workloads), sorted(ws); !reflect.DeepEqual(got, want) {
		t.Errorf("workloads = %v, want %v", got, want)
	}
}
