package faultline

import (
	"errors"
	"strings"
	"syscall"
	"testing"
	"time"
)

// arm installs a plan and disarms on cleanup so tests never leak an
// armed plan into each other (the registry is process-global).
func arm(t *testing.T, p Plan) {
	t.Helper()
	if err := Arm(p); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	t.Cleanup(Disarm)
}

func TestDisarmedIsNoop(t *testing.T) {
	Disarm()
	if err := Hit("any.point"); err != nil {
		t.Fatalf("disarmed Hit returned %v", err)
	}
	b, err := WriteBytes("any.point", []byte("payload"))
	if err != nil || string(b) != "payload" {
		t.Fatalf("disarmed WriteBytes = %q, %v", b, err)
	}
	if active.Load() != nil {
		t.Fatal("plan armed after Disarm")
	}
	if got := Report(); got != "" {
		t.Fatalf("disarmed Report = %q", got)
	}
}

func TestDisarmedZeroAlloc(t *testing.T) {
	Disarm()
	payload := []byte("x")
	allocs := testing.AllocsPerRun(1000, func() {
		if err := Hit("hot.path"); err != nil {
			t.Fatal(err)
		}
		if _, err := WriteBytes("hot.path", payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disarmed failpoints allocate: %g allocs/op", allocs)
	}
}

func TestErrKindAndSentinels(t *testing.T) {
	arm(t, Plan{Rules: []Rule{
		{Pattern: "a.err", Kind: KindErr},
		{Pattern: "a.enospc", Kind: KindENOSPC},
		{Pattern: "a.h500", Kind: KindHTTP500},
		{Pattern: "a.drop", Kind: KindDrop},
	}})
	if err := Hit("a.err"); !errors.Is(err, ErrInjected) {
		t.Fatalf("err kind: %v", err)
	}
	err := Hit("a.enospc")
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("enospc kind: %v", err)
	}
	if err := Hit("a.h500"); !errors.Is(err, ErrHTTP500) || !errors.Is(err, ErrInjected) {
		t.Fatalf("http500 kind: %v", err)
	}
	if err := Hit("a.drop"); !errors.Is(err, ErrDrop) || !errors.Is(err, ErrInjected) {
		t.Fatalf("drop kind: %v", err)
	}
	// Unmatched names stay clean.
	if err := Hit("b.other"); err != nil {
		t.Fatalf("unmatched point injected: %v", err)
	}
}

func TestFromAndMaxTriggers(t *testing.T) {
	arm(t, Plan{Rules: []Rule{{Pattern: "p", Kind: KindErr, From: 3, Max: 2}}})
	var got []bool
	for i := 0; i < 6; i++ {
		got = append(got, Hit("p") != nil)
	}
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d: injected=%v, want %v (all: %v)", i+1, got[i], want[i], got)
		}
	}
	st := Stats()
	if len(st) != 1 || st[0].Hits != 6 || st[0].Injected != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSeededProbabilityReplays(t *testing.T) {
	run := func() []bool {
		arm(t, Plan{Seed: 42, Rules: []Rule{{Pattern: "p", Kind: KindErr, Prob: 0.5}}})
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, Hit("p") != nil)
		}
		Disarm()
		return out
	}
	a, b := run(), run()
	injected := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at hit %d", i+1)
		}
		if a[i] {
			injected++
		}
	}
	if injected == 0 || injected == len(a) {
		t.Fatalf("prob 0.5 injected %d/%d — PRNG not engaged", injected, len(a))
	}
	// A different seed must make different decisions.
	arm(t, Plan{Seed: 43, Rules: []Rule{{Pattern: "p", Kind: KindErr, Prob: 0.5}}})
	var c []bool
	for i := 0; i < 64; i++ {
		c = append(c, Hit("p") != nil)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 42 and 43 made identical decision sequences")
	}
}

func TestPrefixPatternAndFirstMatchWins(t *testing.T) {
	arm(t, Plan{Rules: []Rule{
		{Pattern: "store.save.rename", Kind: KindENOSPC, Max: 1},
		{Pattern: "store.*", Kind: KindErr},
	}})
	// Specific rule wins first, then its budget is spent and the
	// prefix rule takes over.
	if err := Hit("store.save.rename"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("first hit: %v", err)
	}
	if err := Hit("store.save.rename"); err == nil || errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("second hit should fall through to prefix rule: %v", err)
	}
	if err := Hit("store.load.read"); !errors.Is(err, ErrInjected) {
		t.Fatalf("prefix rule: %v", err)
	}
	if err := Hit("coord.lease"); err != nil {
		t.Fatalf("outside prefix: %v", err)
	}
}

func TestTornAndCorruptWrites(t *testing.T) {
	arm(t, Plan{Rules: []Rule{
		{Pattern: "w.torn", Kind: KindTorn, Frac: 0.5},
		{Pattern: "w.corrupt", Kind: KindCorrupt, Frac: 0.99},
	}})
	payload := []byte("0123456789")
	b, err := WriteBytes("w.torn", payload)
	if !errors.Is(err, ErrTorn) || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn err = %v", err)
	}
	if len(b) != 5 || string(b) != "01234" {
		t.Fatalf("torn kept %q", b)
	}
	b, err = WriteBytes("w.corrupt", payload)
	if err != nil {
		t.Fatalf("corrupt must report success, got %v", err)
	}
	if len(b) >= len(payload) || len(b) == 0 {
		t.Fatalf("corrupt kept %q (must be strict non-empty prefix)", b)
	}
	// Torn at a plain Hit point degrades to a generic error.
	if err := Hit("w.torn"); !errors.Is(err, ErrInjected) || errors.Is(err, ErrTorn) {
		t.Fatalf("Hit on torn rule = %v", err)
	}
}

func TestTruncateAlwaysTears(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10} {
		b := make([]byte, n)
		got := truncate(b, 0.999)
		if n > 0 && len(got) >= n {
			t.Fatalf("truncate(%d bytes) kept %d", n, len(got))
		}
	}
}

func TestDelayKind(t *testing.T) {
	arm(t, Plan{Rules: []Rule{{Pattern: "d", Kind: KindDelay, Delay: 20 * time.Millisecond}}})
	start := time.Now()
	if err := Hit("d"); err != nil {
		t.Fatalf("delay returned error: %v", err)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("delay slept only %v", el)
	}
}

func TestCrashKindUsesHook(t *testing.T) {
	old := CrashFn
	t.Cleanup(func() { CrashFn = old })
	var crashed string
	CrashFn = func(name string) { crashed = name }
	arm(t, Plan{Rules: []Rule{{Pattern: "c", Kind: KindCrash, From: 2}}})
	if err := Hit("c"); err != nil || crashed != "" {
		t.Fatalf("crash fired early: %v %q", err, crashed)
	}
	if err := Hit("c"); err != nil {
		t.Fatalf("crash hook path returned error: %v", err)
	}
	if crashed != "c" {
		t.Fatalf("crash hook not invoked: %q", crashed)
	}
}

func TestParsePlanGrammar(t *testing.T) {
	p, err := ParsePlan("seed=7;resultstore.save.temp=corrupt:0.5@5x2;coord.server.push=http500@3x4;coord.client.push=err%0.3;w=delay:50ms;c=crash@2")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if p.Seed != 7 || len(p.Rules) != 5 {
		t.Fatalf("plan = %+v", p)
	}
	r := p.Rules[0]
	if r.Pattern != "resultstore.save.temp" || r.Kind != KindCorrupt || r.Frac != 0.5 || r.From != 5 || r.Max != 2 {
		t.Fatalf("rule 0 = %+v", r)
	}
	r = p.Rules[1]
	if r.Kind != KindHTTP500 || r.From != 3 || r.Max != 4 {
		t.Fatalf("rule 1 = %+v", r)
	}
	r = p.Rules[2]
	if r.Kind != KindErr || r.Prob != 0.3 {
		t.Fatalf("rule 2 = %+v", r)
	}
	if p.Rules[3].Delay != 50*time.Millisecond {
		t.Fatalf("rule 3 = %+v", p.Rules[3])
	}
	if p.Rules[4].Kind != KindCrash || p.Rules[4].From != 2 {
		t.Fatalf("rule 4 = %+v", p.Rules[4])
	}
	// Round-trip through String.
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if p2.String() != p.String() {
		t.Fatalf("round trip: %q != %q", p2.String(), p.String())
	}
}

func TestParsePlanRejects(t *testing.T) {
	for _, spec := range []string{
		"",                    // no rules
		"seed=7",              // seed only
		"p=bogus",             // unknown kind
		"p=err;seed=7",        // seed after rule
		"seed=1;seed=2;p=err", // duplicate seed
		"p=delay",             // delay without duration
		"p=delay:xyz",         // bad duration
		"p=torn",              // torn without fraction
		"p=torn:1.5",          // fraction out of range
		"p=corrupt:0",         // fraction out of range
		"p=err:5",             // param on paramless kind
		"p=err@0",             // from < 1
		"p=err%1.5",           // prob > 1
		"a=err%0",             // prob 0 would mean always, not never
		"p=err%NaN",           // prob not a number
		"p=torn:NaN",          // fraction not a number
		"p=errx0",             // max < 1
		"just-a-name",         // no '='
		"=err",                // empty pattern
		"seed=notanint;p=err", // bad seed
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted", spec)
		}
	}
}

func TestArmFromEnv(t *testing.T) {
	t.Setenv(EnvVar, "")
	if armed, err := ArmFromEnv(); err != nil || armed {
		t.Fatalf("empty env: %v %v", armed, err)
	}
	t.Setenv(EnvVar, "p=err")
	armed, err := ArmFromEnv()
	if err != nil || !armed {
		t.Fatalf("ArmFromEnv: %v %v", armed, err)
	}
	t.Cleanup(Disarm)
	if err := Hit("p"); !errors.Is(err, ErrInjected) {
		t.Fatalf("env-armed plan inert: %v", err)
	}
	t.Setenv(EnvVar, "p=bogus")
	if _, err := ArmFromEnv(); err == nil {
		t.Fatal("malformed env plan accepted")
	}
}

func TestReportFormat(t *testing.T) {
	arm(t, Plan{Rules: []Rule{{Pattern: "b.point", Kind: KindErr, Max: 1}}})
	Hit("b.point")
	Hit("b.point")
	Hit("a.point")
	rep := Report()
	if !strings.Contains(rep, "a.point: 1 hits, 0 injected") ||
		!strings.Contains(rep, "b.point: 2 hits, 1 injected") {
		t.Fatalf("report = %q", rep)
	}
	// Sorted: a before b.
	if strings.Index(rep, "a.point") > strings.Index(rep, "b.point") {
		t.Fatalf("report unsorted: %q", rep)
	}
}
