package experiments

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"kdesel/internal/datagen"
	"kdesel/internal/query"
	"kdesel/internal/table"
	"kdesel/internal/workload"
)

// The serving experiments share one load harness: a synthetic table and
// its query streams, closed-loop clients that time every call, and the
// paired-leg split that turns those timings into a p99 ratio.

// syntheticTable builds a table of rows clustered synthetic tuples in dims
// dimensions, drawn from rng.
func syntheticTable(rng *rand.Rand, rows, dims int) (*table.Table, error) {
	ds := datagen.Synthetic(rng, rows, dims, 10, 0.1)
	tab, err := table.New(dims)
	if err != nil {
		return nil, err
	}
	if err := tab.InsertMany(ds.Rows); err != nil {
		return nil, err
	}
	return tab, nil
}

// labelledWorkload draws n queries of the given kind from rng and labels
// each with its true selectivity over tab.
func labelledWorkload(tab *table.Table, kind workload.Kind, n int, rng *rand.Rand) ([]query.Feedback, error) {
	qs, err := workload.Generate(tab, kind, n, workload.Config{}, rng)
	if err != nil {
		return nil, err
	}
	return workload.TrueSelectivities(tab, qs)
}

// clientStreams draws one stream of n UV queries per client; client c's
// stream is seeded with seed+c, so a stream depends only on its client.
func clientStreams(tab *table.Table, clients, n int, seed int64) ([][]query.Range, error) {
	streams := make([][]query.Range, clients)
	for c := range streams {
		qs, err := workload.Generate(tab, workload.UV, n, workload.Config{}, rand.New(rand.NewSource(seed+int64(c))))
		if err != nil {
			return nil, err
		}
		streams[c] = qs
	}
	return streams, nil
}

// clientRands returns one generator per client, client c's seeded with
// seed+c.
func clientRands(clients int, seed int64) []*rand.Rand {
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed + int64(c)))
	}
	return rngs
}

// latSample is one client call: when it was issued, how long it took, and
// the caller-defined tag the call returned (the model it hit, or its
// outcome).
type latSample struct {
	start time.Time
	lat   time.Duration
	tag   int
}

// runClients runs n closed-loop clients. Client c calls call(c, i) for
// i = 0, 1, 2, ... back to back and records one latSample per call that
// returns no error; a call's error stops that client. With calls > 0 each
// client stops after that many calls and drive may be nil; otherwise the
// clients run until drive, called on the caller's goroutine, returns. It
// returns every client's samples and the first error from drive or, failing
// that, from any call. call(c, ...) runs only on client c's goroutine, so
// per-client state indexed by c needs no locking.
func runClients(n, calls int, call func(c, i int) (tag int, err error), drive func() error) ([]latSample, error) {
	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	perClient := make([][]latSample, n)
	for c := 0; c < n; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; calls <= 0 || i < calls; i++ {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				tag, err := call(c, i)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				perClient[c] = append(perClient[c], latSample{start: t0, lat: time.Since(t0), tag: tag})
			}
		}()
	}
	var err error
	if drive != nil {
		err = drive()
		close(stop)
	}
	wg.Wait()
	if err == nil {
		err = firstErr
	}
	if err != nil {
		return nil, err
	}
	var all []latSample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all, nil
}

// interval is one leg's wall-clock span.
type interval struct{ from, to time.Time }

// minDuringSamples is the floor below which a leg's p99 does not feed a
// ratio: a p99 over a handful of observations is just the max, and one
// scheduler hiccup would decide the run.
const minDuringSamples = 8

// legSplit is a run's latencies filed by leg: per round r, the quiescent
// leg quies[r] and the churn leg churn[r], and each phase pooled over all
// rounds.
type legSplit struct {
	quiesLegs, churnLegs [][]time.Duration
	quiescent, during    []time.Duration
}

// splitLegs files samples into legs. A sample counts as churn when any part
// of its lifetime overlaps a churn leg, and as quiescent when its whole
// lifetime sits inside a quiescent leg. A sample straddling a quiescent
// leg's edge that overlaps no churn leg is discarded rather than misfiled.
func splitLegs(samples []latSample, quies, churn []interval) legSplit {
	s := legSplit{
		quiesLegs: make([][]time.Duration, len(quies)),
		churnLegs: make([][]time.Duration, len(churn)),
	}
	for _, x := range samples {
		from, to := x.start, x.start.Add(x.lat)
		if r := overlaps(churn, from, to); r >= 0 {
			s.churnLegs[r] = append(s.churnLegs[r], x.lat)
			s.during = append(s.during, x.lat)
		} else if r := within(quies, from, to); r >= 0 {
			s.quiesLegs[r] = append(s.quiesLegs[r], x.lat)
			s.quiescent = append(s.quiescent, x.lat)
		}
	}
	return s
}

// within returns the first interval that contains [from, to], or -1.
func within(ivs []interval, from, to time.Time) int {
	for r, iv := range ivs {
		if !from.Before(iv.from) && !to.After(iv.to) {
			return r
		}
	}
	return -1
}

// overlaps returns the first interval that [from, to] overlaps, or -1.
func overlaps(ivs []interval, from, to time.Time) int {
	for r, iv := range ivs {
		if from.Before(iv.to) && to.After(iv.from) {
			return r
		}
	}
	return -1
}

// roundRatios returns each round's churn-leg p99 over its quiescent-leg
// p99, skipping rounds where either leg has fewer than minDuringSamples
// samples, and the median of those ratios (0 when no round qualified).
// Pairing adjacent legs and taking the median is what makes the verdict
// robust on a shared host: a stall burst wrecks one leg of one round, and
// the median discards that round's ratio.
func (s legSplit) roundRatios() ([]float64, float64) {
	var ratios []float64
	for r, quies := range s.quiesLegs {
		churn := s.churnLegs[r]
		if len(quies) < minDuringSamples || len(churn) < minDuringSamples {
			continue
		}
		if q := percentileDuration(quies, 0.99); q > 0 {
			ratios = append(ratios, float64(percentileDuration(churn, 0.99))/float64(q))
		}
	}
	if len(ratios) == 0 {
		return nil, 0
	}
	sorted := append([]float64(nil), ratios...)
	sort.Float64s(sorted)
	return ratios, sorted[len(sorted)/2]
}

// percentileDuration returns the p-quantile of lats by nearest rank — the
// ceil(p·n)-th smallest — or 0 for an empty sample. lats is sorted in place.
func percentileDuration(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(math.Ceil(p*float64(len(lats)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lats) {
		idx = len(lats) - 1
	}
	return lats[idx]
}
