package shard

import (
	"errors"
	"fmt"
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
	// Queries is the estimated-query count (Group.Queries). Older frames
	// restore with 0.
	Queries int
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
	ms := g.maint.State()
	st := groupState{
		K:         g.k,
		D:         g.d,
		STotal:    g.sTotal,
		Seed:      g.cfg.Seed,
		H:         append([]float64(nil), g.h...),
		Draws:     ms.Draws,
		ResSeen:   ms.Seen,
		Karma:     ms.Karma,
		Analyzes:  g.analyzes,
		IngestSeq: ms.Cursor,
		Queries:   g.Queries(),
	}
	ls, trips := g.tune.State()
	st.Learner, st.GradTrips = *ls, trips
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
	if err := checkpoint.WriteFileFrames(path, frames, g.faults); err != nil {
		return err
	}
	g.met.checkpoints.Inc()
	return nil
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
	g, err := newGroup(tab, cfg)
	if err != nil {
		return nil, err
	}
	g.k, g.sTotal, g.h, g.analyzes = st.K, st.STotal, st.H, st.Analyzes
	g.prec, g.cfg.Seed = core.PrecisionFromMeta(meta), st.Seed
	// Every shard must hold exactly the rows the partitioning rule gives
	// it, because the owner mapping addresses the shards by that rule; the
	// rule applied to a one-column sample of STotal rows counts them. Each
	// of those values takes at least one byte of the file.
	if st.STotal < 1 || st.STotal > len(b) {
		return nil, fmt.Errorf("%w: group frame says %d points", checkpoint.ErrCorrupt, st.STotal)
	}
	rows := partition(make([]float64, st.STotal), 1, st.K)
	parts := make([][]float64, st.K)
	for i := range parts {
		var fr shardFrame
		if err := checkpoint.Unmarshal(frames[i+1], &fr); err != nil {
			return nil, fmt.Errorf("shard %d frame: %w", i, err)
		}
		if len(fr.Data) != len(rows[i])*st.D {
			return nil, fmt.Errorf("%w: shard %d frame holds %d values, want %d rows of %d",
				checkpoint.ErrCorrupt, i, len(fr.Data), len(rows[i]), st.D)
		}
		parts[i] = fr.Data
	}
	ms := sample.State{Draws: st.Draws, Seen: st.ResSeen, Karma: st.Karma, Cursor: st.IngestSeq}
	g.maint.Restore(st.Seed, ms)
	g.queries.Store(int64(st.Queries))
	if err := g.tune.Restore(&st.Learner, st.GradTrips); err != nil {
		return nil, err
	}
	if err := g.start(parts, &ms); err != nil {
		return nil, err
	}
	return g, nil
}
