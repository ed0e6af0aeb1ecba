// Package fault is a deterministic, schedule-driven fault injector for the
// estimator pipeline's robustness machinery. The production argument of the
// paper (§1, §7) — an estimator embedded in a query optimizer must degrade
// instead of failing — is only testable if failures can be produced on
// demand, reproducibly. This package provides that: a seedable Injector
// decides, per named fault point, whether the current occurrence of an
// operation should fail, following a Schedule of exact occurrence indices,
// periodic rules, and (seeded) probabilistic rules.
//
// Overhead contract: injection must be optional, exactly like
// internal/metrics. Every method is a no-op on a nil *Injector — Fire
// returns false, Err returns nil — so production code paths carry a single
// nil check and no schedule state. Faults surface as typed errors wrapping
// ErrInjected, which the resilience layer in internal/core treats as the
// transient device-error class (the stand-in for CUDA/OpenCL runtime
// failures); semantic errors never wrap ErrInjected and are never retried.
//
// Schedules are deterministic given the seed: the same schedule against the
// same call sequence fires at the same occurrences, which is what makes the
// chaos suite (internal/core) reproducible.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point names an injectable failure site in the pipeline.
type Point string

// The fault points wired into the pipeline.
const (
	// DeviceTransfer fails a host↔device transfer (gpu.CopyToDevice /
	// gpu.CopyFromDevice).
	DeviceTransfer Point = "transfer"
	// KernelLaunch fails a device kernel pass (gpu.Device.Reduce, the
	// error-returning launch site every estimate and gradient goes through).
	KernelLaunch Point = "launch"
	// OptimizerDiverge makes a batch bandwidth optimization (core Build /
	// Reoptimize) report divergence, exercising the Scott's-rule fallback.
	OptimizerDiverge Point = "optimizer"
	// GradientNonFinite corrupts one feedback gradient component to NaN
	// before it reaches the learner.
	GradientNonFinite Point = "gradient"
	// CheckpointCorrupt flips a byte in a written checkpoint so the CRC
	// check fails on restore.
	CheckpointCorrupt Point = "checkpoint"
	// NetDrop severs a network connection mid-request (the HTTP frontend
	// aborts the response stream without writing a status line).
	NetDrop Point = "netdrop"
	// NetError makes the HTTP frontend answer a request with a 500 before
	// any estimator work runs.
	NetError Point = "net5xx"
	// NetDelay stalls a request at the network edge for the rule's Delay
	// before normal processing, simulating congestion or a slow proxy hop.
	// Pair it with a delay= term; a delay-only rule fires on every
	// occurrence.
	NetDelay Point = "netdelay"
	// ServeDelay stalls an admitted /estimate for the rule's Delay while it
	// holds its in-flight slot, emulating a device's service time (paper §5):
	// wall-clock real but CPU-idle, so admission control, not the host
	// scheduler, decides who waits. Unlike NetDelay it fires after
	// admission, so shed requests never reach it.
	ServeDelay Point = "servedelay"

	// ShardFail fails one shard of a sharded estimator during scatter, so
	// the gather path's partial-failure degradation (serve from the
	// surviving shards, renormalized, flagged Degraded) can be exercised
	// deterministically. Occurrences count per-shard scatter attempts in
	// shard-index order within each gather.
	ShardFail Point = "shard"
)

// Points lists every defined fault point.
var Points = []Point{DeviceTransfer, KernelLaunch, OptimizerDiverge, GradientNonFinite, CheckpointCorrupt, NetDrop, NetError, NetDelay, ServeDelay, ShardFail}

// ErrInjected is the sentinel wrapped by every injected failure. The
// resilience layer retries and degrades only on errors in this class.
var ErrInjected = errors.New("fault: injected failure")

// Error is the typed error returned for one injected failure.
type Error struct {
	// Point is the fault point that fired.
	Point Point
	// Op describes the failed operation (e.g. "copy-to-device").
	Op string
	// Occurrence is the 1-based occurrence index that fired.
	Occurrence int
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s failure in %s (occurrence %d)", e.Point, e.Op, e.Occurrence)
}

// Unwrap marks the error as injected.
func (e *Error) Unwrap() error { return ErrInjected }

// Rule decides which occurrences of a fault point fail. The clauses
// combine with OR: an occurrence fails if it matches At, Every, or the
// probabilistic draw. Limit caps the total injected failures.
type Rule struct {
	// At lists exact 1-based occurrence indices that fail.
	At []int
	// Every fails every Nth occurrence (N, 2N, ...); 0 disables.
	Every int
	// Prob fails each occurrence independently with this probability,
	// drawn from the injector's seeded stream; 0 disables.
	Prob float64
	// Limit caps the number of injected failures for this point; 0 means
	// unlimited.
	Limit int
	// Delay is the stall injected when a latency point (NetDelay,
	// ServeDelay) fires.
	// A rule whose only clause is Delay fires on every occurrence; combine
	// with At/Every/Prob/Limit to stall selectively.
	Delay time.Duration
}

// matches reports whether occurrence n (1-based) fires under the rule,
// using rng for the probabilistic clause.
func (r Rule) matches(n int, fired int, rng *rand.Rand) bool {
	if r.Limit > 0 && fired >= r.Limit {
		return false
	}
	for _, a := range r.At {
		if a == n {
			return true
		}
	}
	if r.Every > 0 && n%r.Every == 0 {
		return true
	}
	if r.Prob > 0 && rng.Float64() < r.Prob {
		return true
	}
	// A delay-only rule has no firing clause of its own: it stalls every
	// occurrence (subject to Limit, checked above).
	if r.Delay > 0 && len(r.At) == 0 && r.Every == 0 && r.Prob == 0 {
		return true
	}
	return false
}

// Schedule maps fault points to their rules. Points absent from the
// schedule never fire.
type Schedule map[Point]Rule

// Injector decides fault firings. The nil *Injector is fully functional as
// a no-op (nothing ever fires, nothing is counted); live injectors are safe
// for concurrent use.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules Schedule
	seen  map[Point]int
	fired map[Point]int
}

// New returns an injector firing per the schedule, with the probabilistic
// clauses driven by seed. The schedule map is copied.
func New(seed int64, s Schedule) *Injector {
	rules := make(Schedule, len(s))
	for p, r := range s {
		rules[p] = r
	}
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		rules: rules,
		seen:  make(map[Point]int),
		fired: make(map[Point]int),
	}
}

// Fire registers one occurrence of point p and reports whether it should
// fail. Always false on a nil injector, with no occurrence counted.
func (in *Injector) Fire(p Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seen[p]++
	r, ok := in.rules[p]
	if !ok {
		return false
	}
	if r.matches(in.seen[p], in.fired[p], in.rng) {
		in.fired[p]++
		return true
	}
	return false
}

// Err registers one occurrence of point p and returns a typed *Error
// (wrapping ErrInjected) if it fires, nil otherwise. Nil on a nil injector.
func (in *Injector) Err(p Point, op string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	in.seen[p]++
	n := in.seen[p]
	r, ok := in.rules[p]
	fire := ok && r.matches(n, in.fired[p], in.rng)
	if fire {
		in.fired[p]++
	}
	in.mu.Unlock()
	if !fire {
		return nil
	}
	return &Error{Point: p, Op: op, Occurrence: n}
}

// FireDelay registers one occurrence of point p and returns the stall to
// inject if the rule fires, 0 otherwise. It is the latency counterpart of
// Fire: the caller is expected to sleep for the returned duration. A firing
// rule without a delay= term counts as fired but stalls nothing. Always 0 on
// a nil injector, with no occurrence counted.
func (in *Injector) FireDelay(p Point) time.Duration {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seen[p]++
	r, ok := in.rules[p]
	if !ok {
		return 0
	}
	if r.matches(in.seen[p], in.fired[p], in.rng) {
		in.fired[p]++
		return r.Delay
	}
	return 0
}

// Seen returns how many occurrences of p were registered; 0 on nil.
func (in *Injector) Seen(p Point) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seen[p]
}

// Fired returns how many failures were injected at p; 0 on nil.
func (in *Injector) Fired(p Point) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[p]
}

// String renders the schedule compactly for logs.
func (in *Injector) String() string {
	if in == nil {
		return "fault: disabled"
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return "fault: " + in.rules.String()
}

// String renders the schedule in the canonical ParseSchedule grammar:
// clauses sorted by point name, terms ordered At (ascending), every=,
// prob=, limit=, delay=. The rendering round-trips — ParseSchedule of the
// result reproduces an equivalent schedule — so specs can be logged,
// stored, and replayed.
func (s Schedule) String() string {
	points := make([]string, 0, len(s))
	for p := range s {
		points = append(points, string(p))
	}
	sort.Strings(points)
	clauses := make([]string, 0, len(points))
	for _, p := range points {
		r := s[Point(p)]
		at := append([]int(nil), r.At...)
		sort.Ints(at)
		terms := make([]string, 0, len(at)+4)
		for _, a := range at {
			terms = append(terms, strconv.Itoa(a))
		}
		if r.Every > 0 {
			terms = append(terms, fmt.Sprintf("every=%d", r.Every))
		}
		if r.Prob > 0 {
			terms = append(terms, fmt.Sprintf("prob=%s", strconv.FormatFloat(r.Prob, 'g', -1, 64)))
		}
		if r.Limit > 0 {
			terms = append(terms, fmt.Sprintf("limit=%d", r.Limit))
		}
		if r.Delay > 0 {
			terms = append(terms, fmt.Sprintf("delay=%s", r.Delay))
		}
		clauses = append(clauses, p+":"+strings.Join(terms, ","))
	}
	return strings.Join(clauses, ";")
}

// EnvVar and EnvSeedVar name the environment knobs read by FromEnv.
const (
	EnvVar     = "KDESEL_FAULTS"
	EnvSeedVar = "KDESEL_FAULT_SEED"
)

// FromEnv builds an injector from the KDESEL_FAULTS environment variable
// (see ParseSchedule for the grammar) seeded by KDESEL_FAULT_SEED (default
// 1). It returns nil (injection disabled) when KDESEL_FAULTS is unset or
// empty, and an error only for a malformed spec.
func FromEnv() (*Injector, error) {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return nil, nil
	}
	s, err := ParseSchedule(spec)
	if err != nil {
		return nil, err
	}
	seed := int64(1)
	if v := os.Getenv(EnvSeedVar); v != "" {
		seed, err = strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad %s %q: %w", EnvSeedVar, v, err)
		}
	}
	return New(seed, s), nil
}

// ParseSchedule parses the textual schedule grammar:
//
//	spec     = clause *(";" clause)
//	clause   = point ":" term *("," term)
//	term     = INDEX | "every=" N | "prob=" P | "limit=" N | "delay=" DUR
//
// where point is one of transfer, launch, optimizer, gradient, checkpoint,
// netdrop, net5xx, netdelay, servedelay, shard. Bare integers are exact 1-based occurrence
// indices; DUR is a time.ParseDuration string (e.g. 5ms). A clause whose
// only term is delay= stalls every occurrence. Examples:
//
//	transfer:3,5                 third and fifth transfers fail
//	gradient:every=7,limit=3     every 7th gradient, at most 3 times
//	launch:prob=0.05;checkpoint:1
//	netdelay:delay=5ms           stall every request 5ms at the edge
//	netdelay:every=4,delay=20ms  stall every 4th request 20ms
//	servedelay:delay=10ms        hold every admitted estimate's slot 10ms
func ParseSchedule(spec string) (Schedule, error) {
	s := make(Schedule)
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("fault: clause %q lacks a point: rule part", clause)
		}
		p := Point(strings.TrimSpace(name))
		if !knownPoint(p) {
			return nil, fmt.Errorf("fault: unknown fault point %q", name)
		}
		r := s[p]
		for _, term := range strings.Split(rest, ",") {
			term = strings.TrimSpace(term)
			if term == "" {
				continue
			}
			switch {
			case strings.HasPrefix(term, "every="):
				n, err := strconv.Atoi(term[len("every="):])
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("fault: bad term %q in %q", term, clause)
				}
				r.Every = n
			case strings.HasPrefix(term, "prob="):
				pv, err := strconv.ParseFloat(term[len("prob="):], 64)
				if err != nil || pv < 0 || pv > 1 {
					return nil, fmt.Errorf("fault: bad term %q in %q", term, clause)
				}
				r.Prob = pv
			case strings.HasPrefix(term, "limit="):
				n, err := strconv.Atoi(term[len("limit="):])
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("fault: bad term %q in %q", term, clause)
				}
				r.Limit = n
			case strings.HasPrefix(term, "delay="):
				d, err := time.ParseDuration(term[len("delay="):])
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("fault: bad term %q in %q", term, clause)
				}
				r.Delay = d
			default:
				n, err := strconv.Atoi(term)
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("fault: bad term %q in %q", term, clause)
				}
				r.At = append(r.At, n)
			}
		}
		s[p] = r
	}
	if len(s) == 0 {
		return nil, errors.New("fault: empty schedule")
	}
	return s, nil
}

func knownPoint(p Point) bool {
	for _, k := range Points {
		if p == k {
			return true
		}
	}
	return false
}
