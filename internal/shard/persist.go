package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"os"

	"kdesel/internal/checkpoint"
	"kdesel/internal/core"
	"kdesel/internal/learner"
	"kdesel/internal/sample"
	"kdesel/internal/table"
)

// groupState is the gob payload of checkpoint frame 0: everything shared
// across shards — learned bandwidth, learner accumulators, karma scores,
// RNG stream position — so a restored group continues bit-identically
// from the checkpoint. Frames written before the int16 tier was retired
// also carry PinScale/PinOff; gob skips fields the struct no longer has.
type groupState struct {
	K      int
	D      int
	STotal int
	Seed   int64
	H      []float64

	Draws    uint64 // counted RNG stream position
	ResSeen  int    // reservoir tuples-seen counter
	Learner  learner.State
	Karma    []float64
	Analyzes int

	// IngestSeq is the change-feed cursor (see Group.IngestCursor). Gob
	// omits zero values, so pre-ingestion frames restore with cursor 0.
	IngestSeq uint64
	// GradTrips is the learning step's run of consecutive rejected
	// gradients, so a restored group resets on the same feedback as the
	// original. Older frames restore with 0.
	GradTrips int
}

// shardFrame is the gob payload of frames 1..K: one shard's row-major
// sample. Empty shards write an empty frame, keeping frame index == shard
// index + 1.
type shardFrame struct {
	Data []float64
}

// Checkpoint writes the group atomically as one multi-frame file: frame 0
// carries the shared state, frames 1..K one sample per shard, installed
// all-or-nothing via temp+sync+rename (checkpoint.WriteFileFrames). A
// crash mid-write never tears the group across shards.
func (g *Group) Checkpoint(path string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	st := groupState{
		K:         g.k,
		D:         g.d,
		STotal:    g.sTotal,
		Seed:      g.cfg.Seed,
		H:         append([]float64(nil), g.h...),
		Draws:     g.src.Draws(),
		ResSeen:   g.maint.Res.Seen(),
		Karma:     g.maint.Karma.Scores(),
		Analyzes:  g.analyzes,
		IngestSeq: g.maint.Cursor,
	}
	st.Learner, st.GradTrips = g.tune.State()
	frames := make([][]byte, 0, g.k+1)
	f0, err := checkpoint.MarshalMeta(st, uint32(g.prec))
	if err != nil {
		return err
	}
	frames = append(frames, f0)
	for _, sh := range g.shards {
		var fr shardFrame
		if sh.est != nil {
			sh.mu.Lock()
			fr.Data = append([]float64(nil), sh.est.SampleFlat()...)
			sh.mu.Unlock()
		}
		b, err := checkpoint.Marshal(fr)
		if err != nil {
			return err
		}
		frames = append(frames, b)
	}
	return checkpoint.WriteFileFrames(path, frames, g.faults)
}

// Restore rebuilds a group from a Checkpoint file against tab. Runtime
// fields of cfg (Workers, Metrics, Faults, Loss, Learner, Karma) apply to
// the restored group; the model state — shard count, sample, bandwidth,
// learner and karma state, RNG position, serving precision — comes from
// the file. The restored group's estimates and its response to further
// feedback are bit-identical to the group that took the checkpoint.
func Restore(path string, tab *table.Table, cfg Config) (*Group, error) {
	if tab == nil {
		return nil, errors.New("shard: nil table")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	frames, err := checkpoint.SplitFrames(b)
	if err != nil {
		return nil, err
	}
	var st groupState
	meta, err := checkpoint.UnmarshalMeta(frames[0], &st)
	if err != nil {
		return nil, err
	}
	if st.K < 1 || st.D != tab.Dims() || len(frames) != st.K+1 {
		return nil, fmt.Errorf("%w: group frame (k=%d, d=%d, frames=%d) inconsistent with table (d=%d)",
			checkpoint.ErrCorrupt, st.K, st.D, len(frames), tab.Dims())
	}
	prec := core.PrecisionFromMeta(meta)

	g := &Group{
		cfg:      cfg,
		tab:      tab,
		d:        st.D,
		k:        st.K,
		lf:       cfg.loss(),
		pool:     cfg.pool(),
		faults:   cfg.Faults,
		sTotal:   st.STotal,
		h:        append([]float64(nil), st.H...),
		prec:     prec,
		analyzes: st.Analyzes,
	}
	g.cfg.Seed = st.Seed
	parts := make([][]float64, st.K)
	total := 0
	for i := range parts {
		var fr shardFrame
		if err := checkpoint.Unmarshal(frames[i+1], &fr); err != nil {
			return nil, fmt.Errorf("shard %d frame: %w", i, err)
		}
		parts[i] = fr.Data
		total += len(fr.Data) / st.D
	}
	if g.shards, err = buildShards(parts, st.D, g.pool, g.h, prec); err != nil {
		return nil, err
	}
	if total != st.STotal {
		return nil, fmt.Errorf("%w: shard frames hold %d points, group frame says %d",
			checkpoint.ErrCorrupt, total, st.STotal)
	}

	src := sample.NewCountingSource(st.Seed + 1)
	src.FastForward(st.Draws)
	g.src = src
	g.maint = sample.Maintainer{Rng: rand.New(src), Cursor: st.IngestSeq}
	if err := g.attachTuner(); err != nil {
		return nil, err
	}
	if err := g.tune.Restore(st.Learner, st.GradTrips); err != nil {
		return nil, err
	}
	kcfg := cfg.Karma
	if kcfg.Loss == nil {
		kcfg.Loss = g.lf
	}
	if g.maint.Karma, err = sample.NewKarma(st.STotal, kcfg); err != nil {
		return nil, err
	}
	if err := g.maint.Karma.RestoreScores(st.Karma); err != nil {
		return nil, err
	}
	if g.maint.Res, err = sample.NewReservoir(st.STotal, st.ResSeen, g.maint.Rng); err != nil {
		return nil, err
	}
	tab.Subscribe(g)
	g.instrument(cfg.Metrics)
	g.mu.Lock()
	g.publishLocked()
	g.mu.Unlock()
	return g, nil
}
