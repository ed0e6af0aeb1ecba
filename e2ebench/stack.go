package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"kdesel/internal/core"
	"kdesel/internal/httpserve"
	"kdesel/internal/mathx"
	"kdesel/internal/metrics"
	"kdesel/internal/registry"
	"kdesel/internal/table"
)

// stack is the program under test, set up from a workload's inputs: a
// registry holding the workload's models over one table, the HTTP edge in
// front of it, and the shared metrics registry every layer reports to.
type stack struct {
	met  *metrics.Registry
	reg  *registry.Registry
	keys []registry.Key
	tabs []*table.Table // each model's (projected) table
	edge *httpserve.Server
}

const tableName = "bench"

// setup builds the program's side of a workload: table load, projection,
// admission (sampling, Batch optimisation, tier build) and, for the
// evolving stream, the ingestion bridge. It is what setup_s times.
func setup(in *inputs, cfg modelConfig, seed int64) (*stack, error) {
	mathx.SetMode(cfg.erf)
	met := metrics.New()
	st := &stack{met: met, reg: registry.New(registry.Config{Metrics: met})}
	tab, err := newTable(in.dims, in.rows)
	if err != nil {
		st.close()
		return nil, err
	}
	serveCfg := core.ServeConfig{MaxBatch: cfg.maxBatch, Precision: cfg.precision}
	for i, m := range in.models {
		key := registry.NewKey(tableName, m.cols...)
		proj := tab
		if len(m.cols) != tab.Dims() {
			if proj, err = registry.Project(tab, m.cols); err != nil {
				st.close()
				return nil, err
			}
		}
		bc := buildConfig(cfg, m, seed, i)
		if cfg.sharded {
			err = st.reg.AdmitSharded(key, proj, bc, cfg.shards, serveCfg)
		} else {
			err = st.reg.Admit(key, proj, bc, serveCfg)
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("admitting %v: %w", key, err)
		}
		st.keys = append(st.keys, key)
		st.tabs = append(st.tabs, proj)
	}
	if in.stream != nil {
		if err := st.reg.AttachIngest(st.keys[0], registry.IngestOptions{}); err != nil {
			st.close()
			return nil, err
		}
	}
	edge, err := httpserve.New(httpserve.Config{Registry: st.reg, Metrics: met})
	if err != nil {
		st.close()
		return nil, err
	}
	st.edge = edge
	return st, nil
}

// buildConfig is model i's core.Config; the direct legs of the traced run
// build their own core.Server and shard.Group from the same values.
func buildConfig(cfg modelConfig, m modelInput, seed int64, i int) core.Config {
	return core.Config{Mode: cfg.mode, SampleSize: cfg.sample, Training: m.training, Seed: seed + int64(i)}
}

func (st *stack) close() {
	if st.edge != nil {
		_ = st.edge.Close()
	}
	st.reg.Close()
}

// counter sums every counter whose name ends in suffix, so per-model
// instruments (model.<key>.core.karma_replacements, ...) add up across
// models and shards.
func counter(s metrics.Snapshot, suffix string) int64 {
	var n int64
	for name, v := range s.Counters {
		if name == suffix || strings.HasSuffix(name, "."+suffix) {
			n += v
		}
	}
	return n
}

// histogram sums every histogram whose name ends in suffix.
func histogram(s metrics.Snapshot, suffix string) (count int64, sum float64) {
	for name, h := range s.Histograms {
		if name == suffix || strings.HasSuffix(name, "."+suffix) {
			count += h.Count
			sum += h.Sum
		}
	}
	return count, sum
}

// listener serves h on a fresh loopback port until stop is called; stop
// waits for the server goroutine to return.
type listener struct {
	url  string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

func (l *listener) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
