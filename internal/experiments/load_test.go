package experiments

import (
	"testing"
	"time"
)

func TestPercentileDurationNearestRank(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	seq := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(n-i) * time.Millisecond // reversed: sorting is part of the contract
		}
		return out
	}
	for _, tc := range []struct {
		name string
		lats []time.Duration
		p    float64
		want time.Duration
	}{
		{"empty", nil, 0.99, 0},
		{"p=1 is the max", ms(4, 9, 1, 7), 1, 9 * time.Millisecond},
		{"p50 of three is the middle", ms(3, 1, 2), 0.50, 2 * time.Millisecond},
		{"p99 of eight keeps the worst", seq(8), 0.99, 8 * time.Millisecond},
		{"p99 of 150 is the 149th", seq(150), 0.99, 149 * time.Millisecond},
	} {
		if got := percentileDuration(tc.lats, tc.p); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSplitLegs checks the paired-leg classification and the round verdict
// on hand-built samples: round r's quiescent leg spans [10r, 10r+5) ms and
// its churn leg [10r+5, 10r+10) ms.
func TestSplitLegs(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	sample := func(from, lat float64) latSample {
		return latSample{start: at(from), lat: time.Duration(lat * float64(time.Millisecond))}
	}
	var quies, churn []interval
	for r := 0; r < 4; r++ {
		base := float64(10 * r)
		quies = append(quies, interval{at(base), at(base + 5)})
		churn = append(churn, interval{at(base + 5), at(base + 10)})
	}

	t.Run("classification", func(t *testing.T) {
		legs := splitLegs([]latSample{
			sample(1, 1),      // inside quiescent leg 0
			sample(4.5, 1),    // straddles quiescent→churn edge of round 0: churn
			sample(9.5, 1),    // straddles churn leg 0 → quiescent leg 1: churn
			sample(21, 0.5),   // inside quiescent leg 2
			sample(-0.5, 1),   // straddles quiescent leg 0's start: discarded
			sample(100, 1),    // outside every leg: discarded
			sample(36, 0.001), // inside churn leg 3
		}, quies, churn)
		if len(legs.quiescent) != 2 || len(legs.quiesLegs[0]) != 1 || len(legs.quiesLegs[2]) != 1 {
			t.Errorf("quiescent = %v (per leg %v), want one sample in legs 0 and 2", legs.quiescent, legs.quiesLegs)
		}
		if len(legs.during) != 3 || len(legs.churnLegs[0]) != 2 || len(legs.churnLegs[3]) != 1 {
			t.Errorf("during = %v (per leg %v), want two samples in leg 0 and one in leg 3", legs.during, legs.churnLegs)
		}
	})

	t.Run("ratios", func(t *testing.T) {
		// Each leg holds minDuringSamples samples of one latency, so its
		// p99 is that latency. Round churn/quiescent ratios: 1, 3, 2; round
		// 3's churn leg is one sample short and must be skipped.
		latency := [][2]float64{{0.1, 0.1}, {0.1, 0.3}, {0.1, 0.2}, {0.1, 0.4}}
		var samples []latSample
		for r, l := range latency {
			n := minDuringSamples
			for k := 0; k < n; k++ {
				samples = append(samples, sample(float64(10*r)+0.5*float64(k), l[0]))
			}
			if r == 3 {
				n--
			}
			for k := 0; k < n; k++ {
				samples = append(samples, sample(float64(10*r)+5.5+0.5*float64(k), l[1]))
			}
		}
		ratios, median := splitLegs(samples, quies, churn).roundRatios()
		if len(ratios) != 3 {
			t.Fatalf("ratios = %v, want 3 rounds (round 3 below minDuringSamples)", ratios)
		}
		for i, want := range []float64{1, 3, 2} {
			if diff := ratios[i] - want; diff < -1e-9 || diff > 1e-9 {
				t.Errorf("round %d ratio = %v, want %v", i, ratios[i], want)
			}
		}
		if diff := median - 2; diff < -1e-9 || diff > 1e-9 {
			t.Errorf("median = %v, want 2", median)
		}
	})
}
