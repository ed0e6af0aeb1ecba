package shard

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"kdesel/internal/core"
	"kdesel/internal/fault"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/table"
)

// learnCounters are the learning-step and ladder counters both engines
// must agree on.
var learnCounters = []string{
	"core.gradients_rejected",
	"core.gradients_quarantined",
	"core.minibatch_updates",
	"core.bandwidth_resets",
	"core.degradation_events",
}

// learnStream is the feedback sequence of TestShardFeedbackInvariance: 60
// queries over the seed-31 table, every third reporting an empty region,
// with an insert every tenth feedback to drive the reservoir.
type learnStream struct {
	tab *table.Table
	fbq []query.Range
}

func newLearnStream(t *testing.T) learnStream {
	t.Helper()
	return learnStream{tab: testTable(t, 2500, 2, 31), fbq: testQueries(60, 2, 43)}
}

// feed delivers feedback i (and its insert) through fb.
func (ls learnStream) feed(t *testing.T, i int, fb func(query.Range, float64) error) {
	t.Helper()
	q := ls.fbq[i]
	actual := 0.0
	if i%3 != 0 {
		var err error
		if actual, err = ls.tab.Selectivity(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := fb(q, actual); err != nil {
		t.Fatalf("feedback %d: %v", i, err)
	}
	if i%10 == 0 {
		if err := ls.tab.Insert([]float64{float64(i), -float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// TestGroupLearnsLikeCore: the sharded group and the unsharded Adaptive
// estimator run one learning step and one recovery policy, so fed the same
// feedback they hold bit-identical bandwidths after every call, at every K.
// With three consecutive non-finite gradients injected, both must also
// quarantine the open mini-batch, reset to Scott's rule, report Degraded,
// and count the same events.
func TestGroupLearnsLikeCore(t *testing.T) {
	cases := []struct {
		name  string
		sched fault.Schedule
	}{
		{"fault-free", nil},
		{"non-finite-streak", fault.Schedule{fault.GradientNonFinite: {At: []int{12, 13, 14}}}},
	}
	for _, tc := range cases {
		for _, k := range []int{1, 2, 4} {
			var coreInj, grpInj *fault.Injector
			if tc.sched != nil {
				coreInj, grpInj = fault.New(1, tc.sched), fault.New(1, tc.sched)
			}
			coreReg, grpReg := metrics.New(), metrics.New()
			cs, gs := newLearnStream(t), newLearnStream(t)
			e, err := core.Build(cs.tab, core.Config{
				Mode: core.Adaptive, SampleSize: 1000, Seed: 5, Metrics: coreReg, Faults: coreInj,
			})
			if err != nil {
				t.Fatal(err)
			}
			g, err := Build(gs.tab, Config{
				Shards: k, SampleSize: 1000, Seed: 5, Workers: 4, Metrics: grpReg, Faults: grpInj,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range cs.fbq {
				cs.feed(t, i, e.Feedback)
				gs.feed(t, i, g.Feedback)
				if ce, ge := e.Bandwidth(), g.Bandwidth(); !sameBits(ce, ge) {
					t.Fatalf("%s K=%d: bandwidth diverged after feedback %d: group %v, core %v", tc.name, k, i, ge, ce)
				}
			}
			if tc.sched != nil {
				if e.Health() != core.Degraded || g.Health() != e.Health() {
					t.Fatalf("%s K=%d: health group %v, core %v, want both degraded", tc.name, k, g.Health(), e.Health())
				}
				cc, gc := coreReg.Snapshot().Counters, grpReg.Snapshot().Counters
				for _, name := range learnCounters {
					if gc[name] != cc[name] {
						t.Errorf("%s K=%d: %s group %v, core %v", tc.name, k, name, gc[name], cc[name])
					}
				}
				if cc["core.bandwidth_resets"] != 1 || cc["core.gradients_rejected"] != 3 {
					t.Errorf("%s K=%d: core counted %v resets, %v rejections; want 1 and 3",
						tc.name, k, cc["core.bandwidth_resets"], cc["core.gradients_rejected"])
				}
			}
			g.Close()
		}
	}
}

// TestShardRestoreMidRejectionStreak: a group checkpointed two rejections
// into a non-finite gradient streak resumes that streak after restore, so
// the third rejection resets it exactly as it resets an uninterrupted group.
func TestShardRestoreMidRejectionStreak(t *testing.T) {
	const k, cut = 2, 13 // the first 13 feedbacks carry two rejections
	sched := fault.Schedule{fault.GradientNonFinite: {At: []int{12, 13, 14}}}
	cfg := Config{Shards: k, SampleSize: 1000, Seed: 5, Workers: 2}

	us := newLearnStream(t)
	ucfg := cfg
	ucfg.Faults = fault.New(1, sched)
	u, err := Build(us.tab, ucfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	rs := newLearnStream(t)
	rcfg := cfg
	rcfg.Faults = fault.New(1, sched)
	g, err := Build(rs.tab, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		rs.feed(t, i, g.Feedback)
	}
	path := filepath.Join(t.TempDir(), "streak.ckpt")
	if err := g.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	g.Close()
	// The restored group gets a fresh injector that continues the schedule:
	// its first occurrence is the original's 14th, the third rejection.
	rcfg.Faults = fault.New(1, fault.Schedule{fault.GradientNonFinite: {At: []int{14 - cut}}})
	r, err := Restore(path, rs.tab, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for i := range us.fbq {
		us.feed(t, i, u.Feedback)
		if i < cut {
			continue
		}
		rs.feed(t, i, r.Feedback)
		if ub, rb := u.Bandwidth(), r.Bandwidth(); !sameBits(ub, rb) {
			t.Fatalf("feedback %d: restored group bandwidth %v, uninterrupted %v", i, rb, ub)
		}
		if i == 13 && u.Health() != core.Degraded {
			t.Fatalf("uninterrupted group still %v after the third rejection", u.Health())
		}
		if r.Health() != u.Health() {
			t.Fatalf("feedback %d: restored group health %v, uninterrupted %v", i, r.Health(), u.Health())
		}
	}
}

// TestShardDegradationsCounted: the group's ladder counts its transitions
// under the serving core's core.degradation_events — once per move down
// the ladder, not once per degraded gather.
func TestShardDegradationsCounted(t *testing.T) {
	reg := metrics.New()
	g, err := Build(testTable(t, 1500, 2, 101), Config{
		Shards: 2, SampleSize: 600, Seed: 1, Metrics: reg,
		Faults: fault.New(1, fault.Schedule{fault.ShardFail: {At: []int{1, 3}}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	q := testQueries(1, 2, 103)[0]
	for i := 0; i < 2; i++ {
		if _, degraded, err := g.EstimateDetail(context.Background(), q); err != nil || !degraded {
			t.Fatalf("gather %d: degraded=%v err=%v, want a degraded gather", i, degraded, err)
		}
	}
	if got := reg.Counter("core.degradation_events").Value(); got != 1 || g.Health() != core.Degraded {
		t.Fatalf("core.degradation_events = %d at health %v, want 1 at degraded", got, g.Health())
	}
}
