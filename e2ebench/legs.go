package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kdesel/internal/bandwidth"
	"kdesel/internal/core"
	"kdesel/internal/ingest"
	"kdesel/internal/kde"
	"kdesel/internal/kernel"
	"kdesel/internal/mathx"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/serve"
	"kdesel/internal/shard"
	"kdesel/internal/table"
)

// legTime is how long each overhead, direct and ablation leg of the traced
// run measures.
func legTime(d time.Duration) time.Duration { return max(time.Second, d/5) }

func p50(xs []float64) float64 {
	v, _, _ := quantile(xs, 0.5)
	return v
}

// runTraced is the traced run. On one stack it measures an untraced and a
// traced read leg (the tracing overhead), replays the read sessions'
// inputs directly against each layer below the edge, then runs the
// workload itself with spans on. Last, it sets up one stack per ablated
// layer.
func runTraced(w workload, in *inputs, seed int64, d time.Duration, o *outcome) error {
	rep, leg, tr := o.rep, legTime(d), newTracer()
	st, err := setup(in, w.cfg, seed)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()
	l, err := listen(tracedHandler{next: st.edge, tr: tr})
	if err != nil {
		return err
	}
	cl, err := newClient(l.url, tr)
	if err != nil {
		return err
	}
	keys := keyNames(st)
	o.absorb(cl.run(in, keys, warmup, false))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := cl.run(in, keys, leg, false)
	runtime.ReadMemStats(&m1)
	n := float64(len(plain.est))
	rep.value("runtime.allocs_per_estimate", float64(m1.Mallocs-m0.Mallocs)/n, "count")
	rep.value("runtime.bytes_per_estimate", float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B")
	tr.on.Store(true)
	mark := tr.mark()
	traced := cl.run(in, keys, leg, false)
	tr.on.Store(false)
	readHandler := p50(durations(tr.since(mark), "httpserve/estimate"))
	// Means, not medians: behind the coalescer the latency is bimodal and
	// the median of two otherwise equal legs can land in either mode.
	rep.value("trace.overhead_pct", (mean(traced.est)/mean(plain.est)-1)*100, "%")
	base := p50(plain.est)
	o.absorb(plain)
	o.absorb(traced)

	// The direct legs run before the main leg, while every model is still
	// identical to the one the leg's own core.Server and shard.Group build:
	// the main leg's feedback and ANALYZE retune the selftune-d5 model.
	if err := directLegs(w.cfg, in, seed, st, tr, leg, o); err != nil {
		return err
	}
	tr.on.Store(true)
	before := st.met.Snapshot()
	mark = tr.mark()
	runtime.ReadMemStats(&m0)
	t := cl.run(in, keys, d, in.stream != nil)
	runtime.ReadMemStats(&m1)
	spans := tr.since(mark)
	tr.on.Store(false)
	rep.value("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	rep.value("runtime.gc_pause_ms_total", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	cl.close()
	if err := l.stop(); err != nil {
		return err
	}
	o.absorb(t)
	reportLoad(rep, t)
	if err := checkAnswers(st, in, t, o); err != nil {
		return err
	}
	reportSpans(rep, spans, in.stream != nil)
	// Self time compares legs of the same read sessions: the traced read
	// leg's handler median against the direct registry leg's.
	rep.value("httpserve.self_ms_p50", readHandler-rep["registry.estimate_ms_p50"].Value, "ms")
	reportCounters(rep, before, st)

	if in.stream != nil {
		if err := writeLeg(w.cfg, in, seed, tr, leg, o); err != nil {
			return err
		}
	}
	st.close()
	closed = true
	if err := ablations(w.cfg, in, seed, leg, base, o); err != nil {
		return err
	}
	return tr.writeFile(traceFile(w.name, seed))
}

// reportSpans derives the edge metrics from the main leg's spans.
func reportSpans(rep report, spans []span, stream bool) {
	rep.timing("httpclient.rtt_self_ms_p50", selfTimes(spans, "client.estimate"), 0.5, "ms")
	hs := durations(spans, "httpserve/estimate")
	rep.timing("httpserve.handler_ms_p50", hs, 0.5, "ms")
	rep.timing("httpserve.handler_ms_p99", hs, 0.99, "ms")
	if stream {
		fs := durations(spans, "httpserve/feedback")
		rep.timing("httpserve.feedback_ms_p50", fs, 0.5, "ms")
		rep.timing("httpserve.feedback_ms_p99", fs, 0.99, "ms")
		rep.timing("httpserve.ingest_ms_p50", durations(spans, "httpserve/ingest"), 0.5, "ms")
	}
}

// reportCounters reports deltas and totals of the program's own
// instruments. Totals (counted from the stack's creation) include setup,
// which is where Batch optimisation happens.
func reportCounters(rep report, before metrics.Snapshot, st *stack) {
	after := st.met.Snapshot()
	delta := func(name string) float64 { return float64(counter(after, name) - counter(before, name)) }
	total := func(name string) float64 { return float64(counter(after, name)) }
	rep.value("httpserve.shed", delta("http.shed"), "count")
	rep.value("httpserve.failed", delta("http.failed"), "count")
	rep.value("registry.analyzes", delta("registry.analyzes"), "count")
	rep.value("ingest.blocked", delta("ingest.blocked"), "count")
	rep.value("ingest.drift_triggers", delta("ingest.drift_triggers"), "count")
	rep.value("optimize.objective_evals", total("bandwidth.objective_evals"), "count")
	rep.value("learner.updates", delta("learner.updates"), "count")
	rep.value("sample.karma_replacements", delta("core.karma_replacements")+delta("shard.replacements"), "count")
	c0, s0 := histogram(before, "bandwidth.optimize_seconds")
	if c1, s1 := histogram(after, "bandwidth.optimize_seconds"); c1 > c0 {
		rep.value("registry.analyze_s_mean", (s1-s0)/float64(c1-c0), "s")
	}
}

// lat runs f closed-loop from every session for d and returns the call
// latencies in ms; failures count against o.
func lat(d time.Duration, o *outcome, f func(s, i int) error) []float64 {
	out := make([][]float64, sessions)
	errs := make([]tally, sessions)
	until := time.Now().Add(d)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; time.Now().Before(until); i++ {
				start := time.Now()
				err := f(s, i)
				errs[s].attempted++
				if err != nil {
					errs[s].fail(err)
					continue
				}
				out[s] = append(out[s], ms(time.Since(start)))
			}
		}(s)
	}
	wg.Wait()
	var all []float64
	for s := range out {
		all = append(all, out[s]...)
		o.absorb(&errs[s])
	}
	return all
}

// directLegs replays the read sessions' inputs against the registry, a
// benchmark-built core.Server and shard.Group per model with the
// workload's configuration, a serve.Batcher over the kde kernel, and the
// kde kernel alone. Self time of a layer is its leg's median minus the
// median of the leg below it.
func directLegs(cfg modelConfig, in *inputs, seed int64, st *stack, tr *tracer, leg time.Duration, o *outcome) error {
	rep, ctx := o.rep, context.Background()
	regLat := lat(leg, o, func(s, i int) error {
		m, p := in.read(s, i)
		_, err := st.reg.EstimateContext(ctx, st.keys[m], p.q)
		return err
	})

	serveCfg := core.ServeConfig{MaxBatch: cfg.maxBatch, Precision: cfg.precision}
	cores := make([]*core.Server, len(in.models))
	groups := make([]*shard.Group, len(in.models))
	views := make([]*kde.View, len(in.models))
	var builds []float64
	defer func() {
		for i := range cores {
			if cores[i] != nil {
				cores[i].Close()
			}
			if groups[i] != nil {
				groups[i].Close()
			}
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	for i, m := range in.models {
		tab := st.tabs[i]
		est, err := core.Build(tab, buildConfig(cfg, m, seed, i))
		if err != nil {
			return err
		}
		cores[i] = core.NewServer(est, serveCfg)
		cores[i].DetachFeed()
		k := 1
		if cfg.sharded {
			k = cfg.shards
		}
		groups[i], err = shard.Build(tab, shard.Config{Shards: k, SampleSize: cfg.sample, Seed: seed + int64(i), Precision: cfg.precision})
		if err != nil {
			return err
		}
		groups[i].Detach()
		sample, err := tab.SampleFlat(min(cfg.sample, tab.Len()), rng)
		if err != nil {
			return err
		}
		start := time.Now()
		if cfg.mode == core.Batch {
			_, err = bandwidth.Optimal(sample, tab.Dims(), m.training, bandwidth.OptimalConfig{})
		} else {
			bandwidth.Scott(sample, tab.Dims())
		}
		if err != nil {
			return err
		}
		builds = append(builds, time.Since(start).Seconds())
		if views[i], err = kdeView(sample, tab.Dims(), est.Bandwidth(), cfg.precision); err != nil {
			return err
		}
	}
	rep.timing("bandwidth.build_s_p50", builds, 0.5, "s")

	coreLat := lat(leg, o, func(s, i int) error {
		m, p := in.read(s, i)
		_, err := cores[m].EstimateContext(ctx, p.q)
		return err
	})
	shardLat := lat(leg, o, func(s, i int) error {
		m, p := in.read(s, i)
		_, err := groups[m].EstimateContext(ctx, p.q)
		return err
	})
	qbuf := make([][1]query.Range, sessions)
	ebuf := make([][1]float64, sessions)
	kdeLat := lat(leg, o, func(s, i int) error {
		m, p := in.read(s, i)
		qbuf[s][0] = p.q
		return views[m].SelectivityBatch(qbuf[s][:], ebuf[s][:])
	})

	batchers := make([]*serve.Batcher, len(in.models))
	for i := range batchers {
		v := views[i]
		batchers[i] = serve.New(func(qs []query.Range, ests []float64) error {
			return tr.timed("kde.batch", len(qs), func() error { return v.SelectivityBatch(qs, ests) })
		}, serve.Config{MaxBatch: cfg.maxBatch})
	}
	tr.on.Store(true)
	mark := tr.mark()
	lat(leg, o, func(s, i int) error {
		m, p := in.read(s, i)
		return tr.timed("serve.request", 0, func() error {
			_, err := batchers[m].Estimate(p.q)
			return err
		})
	})
	spans := tr.since(mark)
	tr.on.Store(false)
	for _, b := range batchers {
		b.Close()
	}
	wait, sizes := waits(spans, "serve.request", "kde.batch")

	rep.timing("registry.estimate_ms_p50", regLat, 0.5, "ms")
	rep.timing("registry.estimate_ms_p99", regLat, 0.99, "ms")
	below := p50(coreLat)
	if cfg.sharded {
		below = p50(shardLat)
	}
	rep.value("registry.self_ms_p50", p50(regLat)-below, "ms")
	rep.timing("core.estimate_ms_p50", coreLat, 0.5, "ms")
	rep.timing("shard.estimate_ms_p50", shardLat, 0.5, "ms")
	rep.value("shard.gather_self_ms_p50", p50(shardLat)-p50(kdeLat), "ms")
	rep.timing("serve.wait_ms_p50", wait, 0.5, "ms")
	rep.timing("serve.wait_ms_p99", wait, 0.99, "ms")
	rep.value("serve.batch_size_mean", mean(sizes), "count")
	rep.timing("kde.batch_ms_p50", durations(spans, "kde.batch"), 0.5, "ms")
	rep.timing("kde.estimate_ms_p50", kdeLat, 0.5, "ms")

	// Roofline inputs: computed from the model's shape, not measured.
	rows, dims := float64(min(cfg.sample, st.tabs[0].Len())), float64(st.tabs[0].Dims())
	rep.value("kde.ns_per_row_dim", p50(kdeLat)*1e6/(rows*dims), "ns")
	rep.value("kde.bytes_per_query", rows*dims*float64(cfg.precision.ElementSize()), "B")
	rep.value("kde.erf_per_query", 2*rows*dims, "count")
	return nil
}

// kdeView is a kernel-only estimator over sample with bandwidth h, frozen
// for concurrent evaluation.
func kdeView(sample []float64, d int, h []float64, p mathx.Precision) (*kde.View, error) {
	est, err := kde.New(d, kernel.Gaussian{})
	if err != nil {
		return nil, err
	}
	if err := est.SetSampleFlat(sample); err != nil {
		return nil, err
	}
	if err := est.SetBandwidth(h); err != nil {
		return nil, err
	}
	est.SetPrecision(p)
	return est.Snapshot(nil), nil
}

// tracedApplier times each batch the ingestion bridge applies.
type tracedApplier struct {
	srv *core.Server
	tr  *tracer
}

func (a tracedApplier) ApplyMutations(ms []table.Mutation) error {
	return a.tr.timed("ingest.apply", len(ms), func() error { return a.srv.ApplyMutations(ms) })
}

// writeLeg replays the stream directly against a benchmark-built
// core.Server fed by its own ingest.Attach bridge over a fresh table: the
// write path without HTTP and without the registry's ANALYZE.
func writeLeg(cfg modelConfig, in *inputs, seed int64, tr *tracer, leg time.Duration, o *outcome) error {
	tab, err := newTable(in.dims, in.rows)
	if err != nil {
		return err
	}
	est, err := core.Build(tab, buildConfig(cfg, in.models[0], seed, 0))
	if err != nil {
		return err
	}
	srv := core.NewServer(est, core.ServeConfig{MaxBatch: cfg.maxBatch, Precision: cfg.precision})
	defer srv.Close()
	srv.DetachFeed()
	var drifts atomic.Int64
	br, err := ingest.Attach(tab, tracedApplier{srv, tr}, ingest.Config{OnDrift: func(ingest.Drift) { drifts.Add(1) }})
	if err != nil {
		return err
	}
	tr.on.Store(true)
	mark := tr.mark()
	t := &tally{}
	until := time.Now().Add(leg)
	for _, op := range in.stream {
		if !time.Now().Before(until) {
			break
		}
		t.attempted++
		switch op.kind {
		case opInsert:
			err = tr.timed("table.insert", len(op.rows), func() error { return tab.InsertMany(op.rows) })
		case opDelete:
			err = tr.timed("table.delete", 0, func() error {
				n, err := tab.DeleteWhere(op.region)
				if err == nil && n != op.events {
					err = fmt.Errorf("table deleted %d rows, want %d", n, op.events)
				}
				return err
			})
		case opQuery:
			err = tr.timed("core.estimate", 0, func() error {
				_, err := srv.Estimate(op.probe.q)
				return err
			})
			if err == nil {
				err = tr.timed("core.feedback", 0, func() error { return srv.Feedback(op.probe.q, op.probe.truth) })
			}
		}
		if err != nil {
			t.fail(err)
		}
	}
	if err := br.Close(); err != nil {
		t.fail(err)
	}
	spans := tr.since(mark)
	tr.on.Store(false)
	o.absorb(t)
	rep := o.rep
	fb := durations(spans, "core.feedback")
	rep.timing("core.feedback_ms_p50", fb, 0.5, "ms")
	rep.maximum("core.feedback_ms_max", fb, "ms")
	rep.timing("table.insert_ms_p50", durations(spans, "table.insert"), 0.5, "ms")
	apply := durations(spans, "ingest.apply")
	rep.timing("ingest.apply_ms_p50", apply, 0.5, "ms")
	rep.timing("ingest.apply_ms_p99", apply, 0.99, "ms")
	var rows []float64
	for _, s := range spans {
		if s.name == "ingest.apply" {
			rows = append(rows, float64(s.n))
		}
	}
	rep.value("ingest.batch_rows_mean", mean(rows), "count")
	rep.value("ingest.direct_drift_triggers", float64(drifts.Load()), "count")
	return nil
}

// ablations measures the read sessions' estimate p50 on a fresh stack with
// one layer switched off through its public configuration. Where the
// workload already runs with that setting, the figure is the workload's own
// untraced read-leg p50 (base).
func ablations(cfg modelConfig, in *inputs, seed int64, leg time.Duration, base float64, o *outcome) error {
	defer mathx.SetMode(cfg.erf)
	legs := []struct {
		name string
		cfg  modelConfig
	}{
		{"coalescer_off", cfg},
		{"k1", cfg},
		{"float64", cfg},
		{"exact_erf", cfg},
	}
	legs[0].cfg.maxBatch = 1
	if cfg.sharded {
		legs[1].cfg.shards = 1
	}
	legs[2].cfg.precision = mathx.Float64
	legs[3].cfg.erf = mathx.Exact
	for _, a := range legs {
		v := base
		if a.cfg != cfg {
			var err error
			if v, err = readP50(a.cfg, in, seed, leg, o); err != nil {
				return fmt.Errorf("ablation %s: %w", a.name, err)
			}
		}
		o.rep.value("ablation."+a.name+".estimate_ms_p50", v, "ms")
	}
	return nil
}

// readP50 sets up a stack with cfg and returns the median estimate latency
// of the read sessions over HTTP.
func readP50(cfg modelConfig, in *inputs, seed int64, leg time.Duration, o *outcome) (float64, error) {
	st, err := setup(in, cfg, seed)
	if err != nil {
		return 0, err
	}
	defer st.close()
	t, err := drive(st, in, leg, false, o)
	if err != nil {
		return 0, err
	}
	return p50(t.est), nil
}
