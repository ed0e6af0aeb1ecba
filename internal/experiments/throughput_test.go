package experiments

import (
	"bytes"
	"strings"
	"testing"

	"kdesel/internal/metrics"
)

func TestThroughputShape(t *testing.T) {
	reg := metrics.New()
	res, err := Throughput(ThroughputConfig{
		SampleSize:       512,
		Clients:          []int{1, 8},
		QueriesPerClient: 40,
		Seed:             5,
		Metrics:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.QPS <= 0 {
			t.Errorf("clients=%d: qps = %v, want > 0", p.Clients, p.QPS)
		}
		if p.Batches <= 0 {
			t.Errorf("clients=%d: no batches recorded", p.Clients)
		}
	}
	// Eight closed-loop clients must fill batches beyond singletons: the
	// coalescer only ever sees one request at a time with a single client,
	// but concurrency has to produce shared evaluations.
	if avg := res.Points[1].AvgBatch; avg <= 1.01 {
		t.Errorf("8 clients: avg batch = %v, want > 1", avg)
	}
	if res.Metrics == nil {
		t.Error("metrics snapshot missing")
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "clients") {
		t.Error("throughput table missing header")
	}
}

func TestAnalyzeUnderLoadShape(t *testing.T) {
	reg := metrics.New()
	res, err := AnalyzeUnderLoad(AnalyzeLoadConfig{
		SampleSize: 512,
		Clients:    4,
		Feedback:   20,
		Rounds:     2,
		Seed:       9,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []AnalyzeLoadPoint{res.Serialized, res.Snapshot} {
		if p.Queries == 0 {
			t.Errorf("serialized=%v: no queries served", p.Serialized)
		}
		if p.During == 0 {
			t.Errorf("serialized=%v: no estimates landed inside an ANALYZE window", p.Serialized)
		}
		if p.AnalyzeRounds != 2 || p.AnalyzeTotal <= 0 {
			t.Errorf("serialized=%v: analyze accounting %d rounds, %v total", p.Serialized, p.AnalyzeRounds, p.AnalyzeTotal)
		}
		if p.P99 < p.P50 || p.Max < p.P99 {
			t.Errorf("serialized=%v: tail out of order p50=%v p99=%v max=%v", p.Serialized, p.P50, p.P99, p.Max)
		}
	}
	// The snapshot path must not queue estimates behind ANALYZE; even at
	// test scale the serialized tail should be visibly worse.
	if res.Speedup <= 1 {
		t.Errorf("p99 speedup = %.2f, want > 1 (serialized %v vs snapshot %v)",
			res.Speedup, res.Serialized.P99, res.Snapshot.P99)
	}
	if res.Metrics == nil {
		t.Error("metrics snapshot missing")
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("analyze-under-load table missing speedup line")
	}
}

func TestThroughputUncoalesced(t *testing.T) {
	res, err := Throughput(ThroughputConfig{
		SampleSize:       256,
		Clients:          []int{4},
		QueriesPerClient: 20,
		MaxBatch:         1, // mutex path
		Seed:             6,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	if p.QPS <= 0 {
		t.Errorf("qps = %v, want > 0", p.QPS)
	}
	if p.Batches != 0 || p.AvgBatch != 0 {
		t.Errorf("uncoalesced point reports batches (%d, %v)", p.Batches, p.AvgBatch)
	}
}
