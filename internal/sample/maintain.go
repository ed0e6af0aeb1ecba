package sample

import (
	"math"
	"math/rand"

	"kdesel/internal/kernel"
	"kdesel/internal/loss"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/table"
)

// Slots is the sample storage a Maintainer mutates, addressed by global
// slot index in [0, Len()).
type Slots interface {
	// Len is the sample size.
	Len() int
	// Point returns the point stored in slot i, read only, or nil when the
	// slot has no storage behind it.
	Point(i int) []float64
	// Replace stores row, which the callee may retain, in slot i.
	Replace(i int, row []float64) error
}

// Maintainer owns the lifecycle of a model's maintained sample (§4.2): the
// draw, the karma and reservoir state, the karma pass over each feedback,
// change-feed inserts, evict-and-resample deletes and patch-in-place
// updates, and the checkpointed State. It reaches the sample only through
// Slots. Both model engines drive it: the serving core over its flat (or
// device) sample, the shard group over the global index space its shards
// partition. Every scan runs in global slot order and every random decision
// draws from Rng, so the outcome depends on the seed and the event stream,
// never on the storage layout.
//
// A Maintainer is not safe for concurrent use; its owner serializes calls
// under its writer lock.
type Maintainer struct {
	// Rng is the model's random stream, set by Draw or Restore; Src is the
	// counted source behind it, whose Draws the State records.
	Rng *rand.Rand
	Src *CountingSource
	// Res decides inserts. Nil disables change-feed maintenance; the
	// cursor still advances.
	Res *Reservoir
	// Karma holds the per-slot scores, reset whenever a slot changes.
	Karma *Karma
	// Cursor is the change-feed cursor: the highest mutation sequence
	// number applied. Checkpoints capture it for exactly-once resume.
	Cursor uint64

	met maintMetrics
}

// State is what a checkpoint carries to resume a Maintainer bit-identically:
// the stream position (Src.Draws), the reservoir's seen count (0 means the
// table size), the karma scores (nil when the sample is not maintained)
// and the change-feed cursor. Each engine maps it onto its own payload.
type State struct {
	Draws  uint64
	Seen   int
	Karma  []float64
	Cursor uint64
}

// Draw seeds the model's stream with seed+1 and draws min(s, tab.Len())
// rows of tab through it, row-major.
func (m *Maintainer) Draw(tab *table.Table, s int, seed int64) ([]float64, error) {
	m.Restore(seed, State{})
	return tab.SampleFlat(min(s, tab.Len()), m.Rng)
}

// Restore seeds the stream with seed+1, fast-forwards it to st.Draws and
// reinstates the cursor; Track reinstates the rest of st.
func (m *Maintainer) Restore(seed int64, st State) {
	m.Src = NewCountingSource(seed + 1)
	m.Src.FastForward(st.Draws)
	m.Rng, m.Cursor = rand.New(m.Src), st.Cursor
}

// Track turns on maintenance of an s-slot sample of tab: karma scored by
// cfg.Loss, or by the model loss lf when that is unset, and a reservoir
// over tab's inserts; then the model l subscribes to tab. A new model
// passes a nil st; a restored one its checkpointed State, whose scores
// must cover all s slots.
func (m *Maintainer) Track(tab *table.Table, l table.Listener, s int, cfg KarmaConfig, lf loss.Function, st *State) error {
	if cfg.Loss == nil {
		cfg.Loss = lf
	}
	k, err := NewKarma(s, cfg)
	if err != nil {
		return err
	}
	seen := tab.Len()
	if st != nil {
		if err := k.RestoreScores(st.Karma); err != nil {
			return err
		}
		if st.Seen > 0 {
			seen = st.Seen
		}
	}
	if m.Res, err = NewReservoir(s, seen, m.Rng); err != nil {
		return err
	}
	m.Karma = k
	tab.Subscribe(l)
	return nil
}

// State captures what Restore and Track need to resume the maintainer.
func (m *Maintainer) State() State {
	st := State{Draws: m.Src.Draws(), Cursor: m.Cursor}
	if m.Karma != nil {
		st.Karma, st.Seen = m.Karma.Scores(), m.Res.Seen()
	}
	return st
}

// KarmaPass folds one feedback into the karma scores and replaces the
// slots it finds outdated with random rows of tab. contrib holds the
// per-slot contributions to q behind the estimate est under bandwidth h
// and kernel kern; a Gaussian kernel enables the empty-region shortcut.
func (m *Maintainer) KarmaPass(s Slots, tab *table.Table, q query.Range, h []float64, kern kernel.Kernel,
	contrib []float64, est, actual float64) error {
	bound := 0.0
	if _, ok := kern.(kernel.Gaussian); ok && actual == 0 {
		bound = EmptyRegionBound(q, h)
	}
	idx, err := m.Karma.Update(contrib, est, actual, bound)
	if err != nil {
		return err
	}
	return m.ReplaceOutdated(s, tab, idx)
}

type maintMetrics struct {
	karmaRepl      *metrics.Counter
	resOffers      *metrics.Counter
	resAccepts     *metrics.Counter
	rejectedRows   *metrics.Counter
	ignoredDeletes *metrics.Counter
	ignoredUpdates *metrics.Counter
	deleteEvicts   *metrics.Counter
	updatePatches  *metrics.Counter
}

// Instrument resolves the maintenance counters on reg; nil detaches them.
// They keep the core.* names the serving core gave them, whichever engine
// owns the Maintainer.
func (m *Maintainer) Instrument(reg *metrics.Registry) {
	m.met = maintMetrics{
		karmaRepl:      reg.Counter("core.karma_replacements"),
		resOffers:      reg.Counter("core.reservoir_offers"),
		resAccepts:     reg.Counter("core.reservoir_accepts"),
		rejectedRows:   reg.Counter("core.rejected_rows"),
		ignoredDeletes: reg.Counter("core.ignored_deletes"),
		ignoredUpdates: reg.Counter("core.ignored_updates"),
		deleteEvicts:   reg.Counter("core.delete_evictions"),
		updatePatches:  reg.Counter("core.update_patches"),
	}
}

// ReplaceOutdated replaces every slot in idx — the points Karma.Update
// flagged as outdated — with a uniformly random row of tab, stopping early
// when tab is empty.
func (m *Maintainer) ReplaceOutdated(s Slots, tab *table.Table, idx []int) error {
	for _, i := range idx {
		row, ok := tab.RandomRow(m.Rng)
		if !ok {
			break // empty table: nothing to replace with
		}
		if err := m.replace(s, i, row); err != nil {
			return err
		}
		m.met.karmaRepl.Inc()
	}
	return nil
}

// Apply applies change-feed events in sequence order and advances Cursor
// past every one of them. It reports whether the sample changed, and the
// first error; events after a failed one still apply.
func (m *Maintainer) Apply(s Slots, ms []table.Mutation) (changed bool, err error) {
	for i := range ms {
		mu := &ms[i]
		var c bool
		var e error
		switch mu.Kind {
		case table.MutInsert:
			c, e = m.insert(s, mu.Row)
		case table.MutDelete:
			c, e = m.delete(s, mu.Row)
		case table.MutUpdate:
			c, e = m.update(s, mu.Pre, mu.Row)
		}
		changed = changed || c
		if e != nil && err == nil {
			err = e
		}
		if mu.Seq > m.Cursor {
			m.Cursor = mu.Seq
		}
	}
	return changed, err
}

// insert runs reservoir sampling over one inserted row: an accepted tuple
// replaces a random slot.
func (m *Maintainer) insert(s Slots, row []float64) (bool, error) {
	if m.Res == nil {
		return false, nil
	}
	m.met.resOffers.Inc()
	slot, accept := m.Res.Offer()
	if !accept {
		return false, nil
	}
	m.met.resAccepts.Inc()
	if err := m.reset(s, slot, append([]float64(nil), row...)); err != nil {
		return false, err
	}
	return true, nil
}

// delete handles one deleted row. Vitter's Algorithm R is insert-only, so
// a sampled tuple's deletion is handled by eviction: its slot takes a copy
// of a uniformly random other sample point. The replacement comes from the
// sample, not the base table, because the apply path must never take table
// locks — it runs on the ingest applier goroutine while table writers may
// be parked on ring backpressure — and the sample is the model's unbiased
// view of the relation; karma maintenance rebalances any duplicate mass.
// Deletes of unsampled tuples, the common case, are left to karma.
func (m *Maintainer) delete(s Slots, row []float64) (bool, error) {
	if m.Res == nil {
		return false, nil
	}
	slot, n := find(s, row), s.Len()
	if slot < 0 || n < 2 {
		m.met.ignoredDeletes.Inc()
		return false, nil
	}
	// One draw, mapped around slot so the replacement is never the evicted
	// point itself.
	j := m.Rng.Intn(n - 1)
	if j >= slot {
		j++
	}
	src := s.Point(j)
	if src == nil {
		m.met.ignoredDeletes.Inc()
		return false, nil
	}
	if err := m.reset(s, slot, append([]float64(nil), src...)); err != nil {
		return false, err
	}
	m.met.deleteEvicts.Inc()
	return true, nil
}

// update patches a sampled pre-image to the post-image in place; updates of
// unsampled tuples are left to karma.
func (m *Maintainer) update(s Slots, pre, post []float64) (bool, error) {
	if m.Res == nil {
		return false, nil
	}
	slot := find(s, pre)
	if slot < 0 {
		m.met.ignoredUpdates.Inc()
		return false, nil
	}
	if err := m.reset(s, slot, append([]float64(nil), post...)); err != nil {
		return false, err
	}
	m.met.updatePatches.Inc()
	return true, nil
}

// reset replaces slot's point and clears its karma history.
func (m *Maintainer) reset(s Slots, slot int, row []float64) error {
	if err := m.replace(s, slot, row); err != nil {
		return err
	}
	if m.Karma != nil {
		m.Karma.Reset(slot)
	}
	return nil
}

// replace stores row in slot i unless it is non-finite: the table blocks
// NaN but not ±Inf, and one such point would poison every future estimate,
// so the old point stays.
func (m *Maintainer) replace(s Slots, i int, row []float64) error {
	for _, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m.met.rejectedRows.Inc()
			return nil
		}
	}
	return s.Replace(i, row)
}

// find returns the first slot, in global index order, holding exactly row,
// or -1. Exact float64 equality is the right predicate: a table pre-image
// that entered the sample entered bit-identical. Global order picks the
// same slot for every storage layout and for batched and one-at-a-time
// apply alike, even when the sample holds duplicates.
func find(s Slots, row []float64) int {
slots:
	for i, n := 0, s.Len(); i < n; i++ {
		p := s.Point(i)
		if p == nil {
			continue
		}
		for j, v := range row {
			if p[j] != v {
				continue slots
			}
		}
		return i
	}
	return -1
}
