package fault

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	for i := 0; i < 10; i++ {
		if in.Fire(DeviceTransfer) {
			t.Fatal("nil injector fired")
		}
		if err := in.Err(KernelLaunch, "op"); err != nil {
			t.Fatalf("nil injector returned error %v", err)
		}
	}
	if in.Seen(DeviceTransfer) != 0 || in.Fired(DeviceTransfer) != 0 {
		t.Fatal("nil injector counted occurrences")
	}
	if in.String() != "fault: disabled" {
		t.Fatalf("nil String() = %q", in.String())
	}
}

func TestExactOccurrences(t *testing.T) {
	in := New(1, Schedule{DeviceTransfer: {At: []int{3, 5}}})
	var fired []int
	for i := 1; i <= 8; i++ {
		if in.Fire(DeviceTransfer) {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 5 {
		t.Fatalf("fired at %v, want [3 5]", fired)
	}
	if in.Seen(DeviceTransfer) != 8 || in.Fired(DeviceTransfer) != 2 {
		t.Fatalf("seen=%d fired=%d", in.Seen(DeviceTransfer), in.Fired(DeviceTransfer))
	}
}

func TestEveryAndLimit(t *testing.T) {
	in := New(1, Schedule{GradientNonFinite: {Every: 4, Limit: 2}})
	var fired []int
	for i := 1; i <= 20; i++ {
		if in.Fire(GradientNonFinite) {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 4 || fired[1] != 8 {
		t.Fatalf("fired at %v, want [4 8]", fired)
	}
}

func TestProbDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []int {
		in := New(seed, Schedule{KernelLaunch: {Prob: 0.3}})
		var fired []int
		for i := 1; i <= 50; i++ {
			if in.Fire(KernelLaunch) {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
	}
	if len(a) == 0 {
		t.Fatal("prob=0.3 never fired in 50 occurrences")
	}
}

func TestErrTypedAndWrapped(t *testing.T) {
	in := New(1, Schedule{DeviceTransfer: {At: []int{1}}})
	err := in.Err(DeviceTransfer, "copy-to-device")
	if err == nil {
		t.Fatal("expected injected error")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("error %v does not wrap ErrInjected", err)
	}
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("error %v is not a *fault.Error", err)
	}
	if fe.Point != DeviceTransfer || fe.Op != "copy-to-device" || fe.Occurrence != 1 {
		t.Fatalf("unexpected error fields: %+v", fe)
	}
	if err := in.Err(DeviceTransfer, "copy-to-device"); err != nil {
		t.Fatalf("occurrence 2 should not fire, got %v", err)
	}
}

func TestUnscheduledPointNeverFires(t *testing.T) {
	in := New(1, Schedule{DeviceTransfer: {Every: 1}})
	for i := 0; i < 10; i++ {
		if in.Fire(CheckpointCorrupt) {
			t.Fatal("unscheduled point fired")
		}
	}
}

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule("transfer:3,5;gradient:every=7,limit=3;launch:prob=0.05;checkpoint:1")
	if err != nil {
		t.Fatal(err)
	}
	if got := s[DeviceTransfer]; len(got.At) != 2 || got.At[0] != 3 || got.At[1] != 5 {
		t.Fatalf("transfer rule = %+v", got)
	}
	if got := s[GradientNonFinite]; got.Every != 7 || got.Limit != 3 {
		t.Fatalf("gradient rule = %+v", got)
	}
	if got := s[KernelLaunch]; got.Prob != 0.05 {
		t.Fatalf("launch rule = %+v", got)
	}
	if got := s[CheckpointCorrupt]; len(got.At) != 1 || got.At[0] != 1 {
		t.Fatalf("checkpoint rule = %+v", got)
	}

	for _, bad := range []string{
		"", "transfer", "bogus:1", "transfer:0", "transfer:every=0",
		"transfer:prob=2", "transfer:limit=-1", "transfer:x",
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error", bad)
		}
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(EnvVar, "")
	in, err := FromEnv()
	if err != nil || in != nil {
		t.Fatalf("empty env: injector=%v err=%v", in, err)
	}
	t.Setenv(EnvVar, "transfer:2")
	t.Setenv(EnvSeedVar, "9")
	in, err = FromEnv()
	if err != nil || in == nil {
		t.Fatalf("env spec: injector=%v err=%v", in, err)
	}
	if in.Fire(DeviceTransfer) {
		t.Fatal("occurrence 1 fired")
	}
	if !in.Fire(DeviceTransfer) {
		t.Fatal("occurrence 2 did not fire")
	}
	t.Setenv(EnvVar, "nope:1")
	if _, err := FromEnv(); err == nil {
		t.Fatal("malformed env spec accepted")
	}
	t.Setenv(EnvVar, "transfer:1")
	t.Setenv(EnvSeedVar, "zzz")
	if _, err := FromEnv(); err == nil {
		t.Fatal("malformed env seed accepted")
	}
}

func TestFireDelay(t *testing.T) {
	in := New(1, Schedule{NetDelay: {Delay: 5 * time.Millisecond}})
	for i := 1; i <= 3; i++ {
		if d := in.FireDelay(NetDelay); d != 5*time.Millisecond {
			t.Fatalf("occurrence %d: delay = %v, want 5ms", i, d)
		}
	}
	if in.Seen(NetDelay) != 3 || in.Fired(NetDelay) != 3 {
		t.Fatalf("seen=%d fired=%d, want 3/3", in.Seen(NetDelay), in.Fired(NetDelay))
	}

	var nilIn *Injector
	if d := nilIn.FireDelay(NetDelay); d != 0 {
		t.Fatalf("nil injector delay = %v", d)
	}
}

func TestFireDelaySelective(t *testing.T) {
	in := New(1, Schedule{NetDelay: {Every: 3, Delay: 20 * time.Millisecond, Limit: 2}})
	var stalled []int
	for i := 1; i <= 12; i++ {
		if d := in.FireDelay(NetDelay); d > 0 {
			if d != 20*time.Millisecond {
				t.Fatalf("occurrence %d: delay = %v, want 20ms", i, d)
			}
			stalled = append(stalled, i)
		}
	}
	if len(stalled) != 2 || stalled[0] != 3 || stalled[1] != 6 {
		t.Fatalf("stalled at %v, want [3 6]", stalled)
	}
}

func TestParseDelayTerm(t *testing.T) {
	s, err := ParseSchedule("netdelay:delay=5ms")
	if err != nil {
		t.Fatal(err)
	}
	r := s[NetDelay]
	if r.Delay != 5*time.Millisecond {
		t.Fatalf("Delay = %v, want 5ms", r.Delay)
	}
	// A delay-only rule fires on every occurrence.
	in := New(1, s)
	for i := 1; i <= 4; i++ {
		if d := in.FireDelay(NetDelay); d != 5*time.Millisecond {
			t.Fatalf("occurrence %d: delay = %v", i, d)
		}
	}

	s, err = ParseSchedule("netdelay:every=4,delay=250us")
	if err != nil {
		t.Fatal(err)
	}
	if r := s[NetDelay]; r.Every != 4 || r.Delay != 250*time.Microsecond {
		t.Fatalf("rule = %+v", r)
	}

	for _, bad := range []string{"netdelay:delay=", "netdelay:delay=-5ms", "netdelay:delay=0s", "netdelay:delay=fast"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Fatalf("ParseSchedule(%q) accepted a bad delay", bad)
		}
	}
}

func TestParseNetworkPoints(t *testing.T) {
	s, err := ParseSchedule("netdrop:prob=0.1;net5xx:every=9;netdelay:delay=1ms;servedelay:delay=10ms")
	if err != nil {
		t.Fatal(err)
	}
	if s[NetDrop].Prob != 0.1 || s[NetError].Every != 9 || s[NetDelay].Delay != time.Millisecond ||
		s[ServeDelay].Delay != 10*time.Millisecond {
		t.Fatalf("schedule = %+v", s)
	}
}

func TestScheduleStringRoundTrip(t *testing.T) {
	specs := []string{
		"transfer:3,5",
		"gradient:every=7,limit=3",
		"launch:prob=0.05;checkpoint:1",
		"netdelay:delay=5ms",
		"netdelay:every=4,delay=20ms,limit=2",
		"netdrop:prob=0.25;net5xx:every=9,limit=4;netdelay:delay=250us",
		"servedelay:delay=10ms;netdelay:every=7,delay=2ms",
		"transfer:5,3,1,every=2,prob=0.5,limit=9,delay=1.5ms",
	}
	for _, spec := range specs {
		s, err := ParseSchedule(spec)
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", spec, err)
		}
		rendered := s.String()
		back, err := ParseSchedule(rendered)
		if err != nil {
			t.Fatalf("ParseSchedule(%q) [rendered from %q]: %v", rendered, spec, err)
		}
		if !reflect.DeepEqual(normalizeSchedule(back), normalizeSchedule(s)) {
			t.Fatalf("round trip of %q: got %+v via %q, want %+v", spec, back, rendered, s)
		}
		// The canonical rendering is a fixed point.
		if again := back.String(); again != rendered {
			t.Fatalf("String not canonical: %q -> %q", rendered, again)
		}
	}
}

func normalizeSchedule(s Schedule) Schedule {
	out := make(Schedule, len(s))
	for p, r := range s {
		at := append([]int(nil), r.At...)
		sort.Ints(at)
		if len(at) == 0 {
			at = nil
		}
		r.At = at
		out[p] = r
	}
	return out
}
