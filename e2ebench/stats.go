package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// quantile returns the p-quantile (nearest rank) of xs, or, when fewer
// than minTail samples would lie beyond it, the highest quantile that keeps
// minTail beyond. got is the quantile actually reported; n is the sample
// count. xs is sorted in place.
func quantile(xs []float64, p float64) (v, got float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(n))) - 1
	if last := n - 1 - minTail; i > last {
		i = last
	}
	if i < 0 {
		i = 0
	}
	return xs[i], float64(i+1) / float64(n), n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// interval is a closed span of time in nanoseconds since the trace epoch.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover;
// children may overlap each other and stick out of the parent.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, reach := int64(0), parent.start
	for _, c := range cs {
		if c.start > reach {
			reach = c.start
		}
		if c.end > reach {
			covered += c.end - reach
			reach = c.end
		}
	}
	return parent.end - parent.start - covered
}

// metricName is the grammar every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported figure. Samples and Quantile describe timings:
// how many samples the figure summarises, and which quantile was reported.
type metric struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Samples  int     `json:"samples,omitempty"`
	Quantile float64 `json:"quantile,omitempty"`
}

// report collects metrics by name and refuses names outside the grammar
// or reused.
type report map[string]metric

func (r report) set(name string, m metric) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("metric name %q outside the grammar", name))
	}
	if _, dup := r[name]; dup {
		panic(fmt.Sprintf("metric %q reported twice", name))
	}
	r[name] = m
}

func (r report) value(name string, v float64, unit string) { r.set(name, metric{Value: v, Unit: unit}) }

// maximum reports the largest of xs with its sample count: the one
// figure exempt from the ten-samples-beyond rule, because it names the
// worst case rather than estimating a percentile.
func (r report) maximum(name string, xs []float64, unit string) {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	r.set(name, metric{Value: m, Unit: unit, Samples: len(xs), Quantile: 1})
}

// timing reports the p-quantile of xs (milliseconds unless unit says
// otherwise) with its sample count.
func (r report) timing(name string, xs []float64, p float64, unit string) {
	v, got, n := quantile(xs, p)
	r.set(name, metric{Value: v, Unit: unit, Samples: n, Quantile: got})
}
