package experiments

import (
	"bytes"
	"testing"
	"time"
)

// TestIngestLoadSmoke runs a shrunken continuous-ingestion experiment end
// to end: estimates are served through both legs, and the change feed is
// delivered exactly once (the model's cursor and the bridge's applied count
// both equal the mutations produced). Latency ratios are reported, not
// asserted; kdebench -exp ingest prints the bounded-lag verdict.
func TestIngestLoadSmoke(t *testing.T) {
	res, err := IngestLoad(IngestLoadConfig{
		Rows:       1500,
		SampleSize: 256,
		Clients:    2,
		Duration:   150 * time.Millisecond,
		Rounds:     1,
		Rate:       2000,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cursor != uint64(res.Produced) || res.Applied != int64(res.Produced) {
		t.Errorf("exactly-once violated: produced %d, applied %d, cursor %d",
			res.Produced, res.Applied, res.Cursor)
	}
	if res.Served == 0 {
		t.Error("no estimates served")
	}
	if res.DuringN == 0 {
		t.Error("no estimate overlapped a churn leg")
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if buf.Len() == 0 {
		t.Error("WriteTable produced nothing")
	}
}
