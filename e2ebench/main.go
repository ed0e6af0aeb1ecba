// Command e2ebench is the repository's standing end-to-end benchmark. It
// sets up the real serving stack (registry, models, HTTP edge) in one
// process, drives it closed-loop over loopback HTTP for a fixed time, checks
// every answer, and prints the metrics as JSON. See README.md.
//
//	e2ebench --workload scan-d8 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// endToEnd are the metrics of the untraced run the result line carries;
// perLayer those of the traced run. BENCHMARK.json lists the same names.
var endToEnd = []string{
	"estimate_p90_ms", "estimate_qps", "setup_s", "heap_mb",
}

var perLayer = []string{
	"httpclient.rtt_self_ms_p50",
	"httpserve.handler_ms_p50", "httpserve.handler_ms_p99", "httpserve.self_ms_p50",
	"httpserve.shed", "httpserve.failed",
	"registry.estimate_ms_p50", "registry.estimate_ms_p99", "registry.self_ms_p50", "registry.analyzes",
	"core.estimate_ms_p50",
	"serve.wait_ms_p50", "serve.wait_ms_p99", "serve.batch_size_mean",
	"kde.batch_ms_p50", "kde.ns_per_row_dim", "kde.bytes_per_query", "kde.erf_per_query",
	"shard.estimate_ms_p50", "shard.gather_self_ms_p50",
	"ingest.blocked", "ingest.drift_triggers",
	"bandwidth.build_s_p50", "optimize.objective_evals",
	"learner.updates", "sample.karma_replacements",
	"runtime.allocs_per_estimate", "runtime.bytes_per_estimate", "runtime.gc_cycles",
	"trace.overhead_pct",
	"ablation.coalescer_off.estimate_ms_p50", "ablation.k1.estimate_ms_p50",
	"ablation.float64.estimate_ms_p50", "ablation.exact_erf.estimate_ms_p50",
}

// A run sets the program up at least setupMinReps times, and more (up to
// setupMaxReps) until setupMinTime has passed; setup_s is the median.
const (
	setupMinReps = 3
	setupMaxReps = 200
	setupMinTime = time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "scan-d8 | probe-d2 | selftune-d5")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "measured load time of the main leg")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload scan-d8|probe-d2|selftune-d5 --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// outcome is a run's verdict and figures.
type outcome struct {
	attempted, failed int
	errs              []string
	rep               report
}

// check counts a failed correctness check against the operation it
// concerns, which the session already counted as attempted.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failed++
		if len(o.errs) < 10 {
			o.errs = append(o.errs, fmt.Sprintf(format, args...))
		}
	}
}

func (o *outcome) absorb(t *tally) {
	o.attempted += t.attempted
	o.failed += t.failed
	o.errs = append(o.errs, t.errs...)
}

func run(w workload, seed int64, d time.Duration, traced bool) error {
	host := hostRecord(w.name, seed)
	in, err := w.gen(seed)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	o := &outcome{rep: report{}}
	if traced {
		err = runTraced(w, in, seed, d, o)
	} else {
		err = runEndToEnd(w, in, seed, d, o)
	}
	if err != nil {
		return err
	}
	o.rep.value("fail_ratio", float64(o.failed)/float64(max(1, o.attempted)), "ratio")
	names := endToEnd
	if traced {
		names = perLayer
	}
	final := report{}
	for _, n := range names {
		m, ok := o.rep[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		final[n] = metric{Value: m.Value, Unit: m.Unit}
	}
	for _, e := range o.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	correct := o.failed == 0
	printLine(map[string]any{"host": host})
	printLine(map[string]any{"workload": w.name, "seed": seed, "traced": traced, "report": o.rep})
	printLine(map[string]any{"correct": correct, "attempted": o.attempted, "failed": o.failed, "metrics": final})
	if !correct {
		os.Exit(1)
	}
	return nil
}

func printLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

// timedSetup sets the program up repeatedly and keeps the last stack.
// It reports setup_s (median) and heap_mb (live heap the kept stack adds,
// after a forced GC).
func timedSetup(w workload, in *inputs, seed int64, rep report) (*stack, error) {
	before := liveHeap()
	var times []float64
	var st *stack
	for total := time.Duration(0); len(times) < setupMinReps || (total < setupMinTime && len(times) < setupMaxReps); {
		if st != nil {
			st.close()
		}
		runtime.GC() // every rep starts from a collected heap
		start := time.Now()
		var err error
		if st, err = setup(in, w.cfg, seed); err != nil {
			return nil, err
		}
		took := time.Since(start)
		total += took
		times = append(times, took.Seconds())
	}
	rep.timing("setup_s", times, 0.5, "s")
	rep.value("heap_mb", (liveHeap()-before)/(1<<20), "MiB")
	return st, nil
}

func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func keyNames(st *stack) []string {
	out := make([]string, len(st.keys))
	for i, k := range st.keys {
		out[i] = k.String()
	}
	return out
}

// warmup is the untimed load before the measured window, so connections,
// pools and caches are ready when timing starts.
const warmup = 500 * time.Millisecond

// runEndToEnd is the untraced run: set up, warm up, measure, check.
func runEndToEnd(w workload, in *inputs, seed int64, d time.Duration, o *outcome) error {
	st, err := timedSetup(w, in, seed, o.rep)
	if err != nil {
		return err
	}
	defer st.close()
	t, err := drive(st, in, d, in.stream != nil, o)
	if err != nil {
		return err
	}
	reportLoad(o.rep, t)
	return checkAnswers(st, in, t, o)
}

// drive serves st on a loopback port, warms it up, runs the sessions for d
// untraced and returns what they measured. Warm-up operations count as
// attempted too.
func drive(st *stack, in *inputs, d time.Duration, withStream bool, o *outcome) (*tally, error) {
	l, err := listen(st.edge)
	if err != nil {
		return nil, err
	}
	cl, err := newClient(l.url, nil)
	if err != nil {
		return nil, errors.Join(err, l.stop())
	}
	keys := keyNames(st)
	o.absorb(cl.run(in, keys, warmup, false))
	t := cl.run(in, keys, d, withStream)
	o.absorb(t)
	cl.close()
	return t, l.stop()
}

// reportLoad turns a tally into the end-to-end metrics.
func reportLoad(rep report, t *tally) {
	rep.timing("estimate_p50_ms", t.est, 0.5, "ms")
	rep.timing("estimate_p90_ms", t.est, 0.9, "ms")
	rep.value("estimate_mean_ms", mean(t.est), "ms")
	rep.timing("estimate_p99_ms", t.est, 0.99, "ms")
	rep.value("estimate_qps", t.qps, "1/s")
	qe := scored(t)
	rep.timing("qerror_p50", qe, 0.5, "ratio")
	rep.timing("qerror_p95", qe, 0.95, "ratio")
	if t.streamOps > 0 {
		rep.timing("feedback_p50_ms", t.fb, 0.5, "ms")
		rep.timing("feedback_p99_ms", t.fb, 0.99, "ms")
		rep.maximum("feedback_max_ms", t.fb, "ms")
		rep.timing("ingest_p50_ms", t.ing, 0.5, "ms")
		rep.timing("ingest_p99_ms", t.ing, 0.99, "ms")
		rep.value("replay_ops_per_s", t.replayRate, "1/s")
	}
}

// scored returns the q-errors of a tally: one per distinct probe a read
// session was answered on (the read-only models answer a probe the same
// way every time), or one per stream query.
func scored(t *tally) []float64 {
	if len(t.reads) == 0 {
		return t.qerr
	}
	seen := map[*probe]bool{}
	var out []float64
	for _, r := range t.reads {
		if !seen[r.probe] {
			seen[r.probe] = true
			out = append(out, qerror(r.value, r.probe.truth, r.probe.rows))
		}
	}
	return out
}

// checkAnswers runs the correctness checks that need the program's state
// after the load: bit-identity of HTTP answers on read-only models, and the
// ingest cursor against the mutations sent.
func checkAnswers(st *stack, in *inputs, t *tally, o *outcome) error {
	if in.stream == nil {
		want, err := inProcess(st, t.reads)
		if err != nil {
			return err
		}
		for _, r := range t.reads {
			v := want[r.probe]
			o.check(math.Float64bits(v) == math.Float64bits(r.value),
				"%v: HTTP estimate %v differs from in-process %v", st.keys[r.model], r.value, v)
		}
		return nil
	}
	if t.streamDone {
		o.check(false, "the stream ran out before the measured time ended; lengthen it")
	}
	// The ring drains asynchronously; wait for it to settle.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, ok := st.reg.IngestStats(st.keys[0])
		if ok && s.Depth == 0 && s.Cursor == uint64(t.events) {
			return nil
		}
		if time.Now().After(deadline) {
			o.check(false, "ingest cursor %d (depth %d) after flush, want %d mutations sent", s.Cursor, s.Depth, t.events)
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// inProcess answers every distinct probe of reads through the in-process
// registry, from one goroutine per session.
func inProcess(st *stack, reads []estRecord) (map[*probe]float64, error) {
	want := map[*probe]float64{}
	var todo []estRecord
	for _, r := range reads {
		if _, ok := want[r.probe]; !ok {
			want[r.probe] = 0
			todo = append(todo, r)
		}
	}
	vals := make([]float64, len(todo))
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(todo) && errs[s] == nil; i += sessions {
				vals[i], errs[s] = st.reg.Estimate(st.keys[todo[i].model], todo[i].probe.q)
			}
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, r := range todo {
		want[r.probe] = vals[i]
	}
	return want, nil
}

// hostRecord describes where and on what the numbers were measured.
func hostRecord(workload string, seed int64) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// traceFile is where a traced run saves its spans, under the build
// directory the runner script uses.
func traceFile(w string, seed int64) string {
	return filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", w, seed))
}
