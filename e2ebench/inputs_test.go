package main

import (
	"reflect"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.gen(7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.gen(7)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Error("seed 7 generated different inputs twice")
			}
			c, err := w.gen(8)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a.rows, c.rows) {
				t.Error("seeds 7 and 8 generated the same table")
			}
		})
	}
}

func TestInputsAreWellFormed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.gen(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(in.probes) != len(in.models) {
				t.Fatalf("%d read pools for %d models", len(in.probes), len(in.models))
			}
			for m, pool := range in.probes {
				if len(pool) == 0 {
					t.Fatalf("model %d has an empty read pool", m)
				}
				for _, p := range pool {
					if p.truth < 0 || p.truth > 1 || p.rows <= 0 || p.q.Dims() != len(in.models[m].cols) {
						t.Fatalf("model %d: malformed probe %+v", m, p)
					}
				}
			}
			for _, op := range in.stream {
				if op.kind == opInsert && op.events != len(op.rows) {
					t.Fatalf("insert batch of %d rows carries %d events", len(op.rows), op.events)
				}
			}
			if (w.name == "selftune-d5") != (len(in.stream) > 0) {
				t.Errorf("stream of %d ops", len(in.stream))
			}
		})
	}
}

func TestReadSpreadsOverModelsAndPools(t *testing.T) {
	in := &inputs{models: make([]modelInput, 3), probes: [][]probe{make([]probe, 4), make([]probe, 4), make([]probe, 4)}}
	seen := map[*probe]int{}
	for i := 0; i < 12; i++ {
		for s := 0; s < sessions; s++ {
			m, p := in.read(s, i)
			if p != &in.probes[m][0] && p != &in.probes[m][1] && p != &in.probes[m][2] && p != &in.probes[m][3] {
				t.Fatalf("read(%d, %d) returned a probe outside model %d's pool", s, i, m)
			}
			seen[p]++
		}
	}
	if len(seen) != 12 {
		t.Errorf("24 reads touched %d of 12 probes", len(seen))
	}
	for p, n := range seen {
		if n != 2 {
			t.Errorf("probe %p read %d times, want 2", p, n)
		}
	}
}
