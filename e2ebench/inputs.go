package main

import (
	"fmt"
	"math/rand"

	"kdesel/internal/core"
	"kdesel/internal/datagen"
	"kdesel/internal/mathx"
	"kdesel/internal/query"
	"kdesel/internal/registry"
	"kdesel/internal/table"
	qgen "kdesel/internal/workload"
)

// modelConfig is the program configuration a workload is served with. The
// ablation legs of the traced run copy it and switch one field.
type modelConfig struct {
	mode      core.Mode
	sample    int             // sample points per model (all shards together)
	sharded   bool            // admit through Registry.AdmitSharded
	shards    int             // K when sharded
	precision mathx.Precision // serving tier
	erf       mathx.Mode      // process-global erf implementation
	maxBatch  int             // core.ServeConfig.MaxBatch; 0 = serve default
}

// workload is one named benchmark workload: its inputs, made from the seed
// alone, and the configuration the program is set up with. README.md
// records why each was chosen.
type workload struct {
	name string
	cfg  modelConfig
	gen  func(seed int64) (*inputs, error)
}

// sessions is the closed-loop client count of every workload: at most one
// per CPU of the 2-CPU host the benchmark was sized on.
const sessions = 2

var workloads = []workload{
	{
		name: "scan-d8",
		cfg: modelConfig{mode: core.Heuristic, sample: 1 << 17, sharded: true, shards: 2,
			precision: mathx.Float32, erf: mathx.Fast},
		gen: genScan,
	},
	{
		name: "probe-d2",
		cfg:  modelConfig{mode: core.Batch, sample: 256, precision: mathx.Float64, erf: mathx.Exact},
		gen:  genProbe,
	},
	{
		name: "selftune-d5",
		cfg:  modelConfig{mode: core.Adaptive, sample: 512, precision: mathx.Float64, erf: mathx.Exact},
		gen:  genSelftune,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is everything a workload sends the program, plus the exact answers
// the benchmark checks against. Nothing in it is computed by the code under
// test.
type inputs struct {
	dims   int
	rows   [][]float64 // initial table contents
	models []modelInput
	// probes is each model's read pool; read sessions cycle through it.
	probes [][]probe
	// stream is session 1's ordered replay (selftune-d5 only).
	stream []streamOp
}

// modelInput is one model: its column subset of the table and, for Batch
// mode, its training feedback.
type modelInput struct {
	cols     []int
	training []query.Feedback
}

// probe is one range query with its exact selectivity over a table of rows
// rows at the time it is asked.
type probe struct {
	q     query.Range
	truth float64
	rows  int
}

type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opQuery
)

// streamOp is one HTTP step of the evolving replay.
type streamOp struct {
	kind   opKind
	rows   [][]float64 // opInsert: one /ingest batch
	region query.Range // opDelete: the archived cluster's box
	probe  probe       // opQuery: /estimate, then /feedback with probe.truth
	events int         // change-feed mutations the op produces
}

// read returns request i of read session s: the model it targets and the
// query. Requests spread round-robin over the models, then over each
// model's pool, so the sessions interleave rather than repeat each other.
func (in *inputs) read(s, i int) (int, *probe) {
	k := i*sessions + s
	m := k % len(in.models)
	pool := in.probes[m]
	return m, &pool[(k/len(in.models))%len(pool)]
}

func newTable(d int, rows [][]float64) (*table.Table, error) {
	tab, err := table.New(d)
	if err != nil {
		return nil, err
	}
	if err := tab.InsertMany(rows); err != nil {
		return nil, err
	}
	return tab, nil
}

// probesFor draws n queries of kind over tab and computes their exact
// selectivities.
func probesFor(tab *table.Table, kind qgen.Kind, n int, rng *rand.Rand) ([]probe, error) {
	qs, err := qgen.Generate(tab, kind, n, qgen.Config{}, rng)
	if err != nil {
		return nil, err
	}
	fbs, err := qgen.TrueSelectivities(tab, qs)
	if err != nil {
		return nil, err
	}
	out := make([]probe, len(fbs))
	for i, fb := range fbs {
		out[i] = probe{q: fb.Query, truth: fb.Actual, rows: tab.Len()}
	}
	return out, nil
}

const (
	scanRows   = 200_000
	scanProbes = 256

	probeRows     = 16_000
	probePool     = 256
	probeTraining = 100

	selftuneCycles = 60
	selftuneBatch  = 10 // rows per /ingest insert call
)

// genScan: one d=8 clustered table and explorative (DV) queries.
func genScan(seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	ds := datagen.Synthetic(rng, scanRows, 8, 10, 0.1)
	tab, err := newTable(8, ds.Rows)
	if err != nil {
		return nil, err
	}
	ps, err := probesFor(tab, qgen.DV, scanProbes, rng)
	if err != nil {
		return nil, err
	}
	return &inputs{
		dims:   8,
		rows:   ds.Rows,
		models: []modelInput{{cols: []int{0, 1, 2, 3, 4, 5, 6, 7}}},
		probes: [][]probe{ps},
	}, nil
}

// probePairs are the eight column pairs of the probe-d2 table, one model
// each.
var probePairs = [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {1, 2}, {3, 4}, {5, 6}, {7, 0}}

// genProbe: one d=8 table; per column pair, DT training queries for the
// Batch optimiser and a DV read pool.
func genProbe(seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	ds := datagen.Synthetic(rng, probeRows, 8, 10, 0.1)
	tab, err := newTable(8, ds.Rows)
	if err != nil {
		return nil, err
	}
	in := &inputs{dims: 8, rows: ds.Rows}
	for _, cols := range probePairs {
		proj, err := registry.Project(tab, cols)
		if err != nil {
			return nil, err
		}
		train, err := probesFor(proj, qgen.DT, probeTraining, rng)
		if err != nil {
			return nil, err
		}
		fbs := make([]query.Feedback, len(train))
		for i, p := range train {
			fbs[i] = query.Feedback{Query: p.q, Actual: p.truth}
		}
		pool, err := probesFor(proj, qgen.DV, probePool, rng)
		if err != nil {
			return nil, err
		}
		in.models = append(in.models, modelInput{cols: cols, training: fbs})
		in.probes = append(in.probes, pool)
	}
	return in, nil
}

// genSelftune: the §6.5 evolving stream, replayed on a mirror table so
// every query carries its exact selectivity at its place in the stream.
// Consecutive inserts are sent in batches of selftuneBatch rows.
func genSelftune(seed int64) (*inputs, error) {
	ev, err := qgen.NewEvolving(qgen.EvolvingConfig{Dims: 5, Cycles: selftuneCycles}, seed)
	if err != nil {
		return nil, err
	}
	mirror, err := newTable(5, ev.Initial)
	if err != nil {
		return nil, err
	}
	in := &inputs{dims: 5, rows: ev.Initial, models: []modelInput{{cols: []int{0, 1, 2, 3, 4}}}}
	var reads []probe
	var batch [][]float64
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := mirror.InsertMany(batch); err != nil {
			return err
		}
		in.stream = append(in.stream, streamOp{kind: opInsert, rows: batch, events: len(batch)})
		batch = nil
		return nil
	}
	for _, op := range ev.Ops {
		if op.Kind == qgen.OpInsert {
			batch = append(batch, op.Row)
			if len(batch) == selftuneBatch {
				if err := flush(); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err := flush(); err != nil {
			return nil, err
		}
		switch op.Kind {
		case qgen.OpDeleteRegion:
			n, err := mirror.DeleteWhere(op.Region)
			if err != nil {
				return nil, err
			}
			in.stream = append(in.stream, streamOp{kind: opDelete, region: op.Region, events: n})
		case qgen.OpQuery:
			truth, err := mirror.Selectivity(op.Query)
			if err != nil {
				return nil, err
			}
			p := probe{q: op.Query, truth: truth, rows: mirror.Len()}
			in.stream = append(in.stream, streamOp{kind: opQuery, probe: p})
			reads = append(reads, p)
		default:
			return nil, fmt.Errorf("unknown evolving op %d", op.Kind)
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	in.probes = [][]probe{reads}
	return in, nil
}
