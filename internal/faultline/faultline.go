// Package faultline is a deterministic fault-injection layer for the
// sweep infrastructure. Code that claims durability declares named
// *failpoints* — `faultline.Hit("resultstore.save.rename")` — which are
// a no-op costing one atomic load while disarmed (the default, proven
// by a zero-alloc test), and inject faults when armed with a Plan:
// errors, ENOSPC, delays, torn/partial writes, silent corruption, HTTP
// 5xx, dropped responses, and crash-after-N-hits.
//
// Determinism: a Plan carries a seed, and every probabilistic decision
// draws from one PRNG seeded by it, so a chaos run is replayable from
// its seed — the same plan over the same workload makes the same
// injection decisions in the same order. (Which wall-clock moment a
// given hit lands at still depends on goroutine scheduling; the
// *decisions* are what replay.) Hit counts are per failpoint name, so
// `@N` rules fire on exactly the N-th time that point is reached.
//
// Plans arm programmatically (Arm) or from the FP8_FAULTS environment
// variable (ArmFromEnv), whose grammar is semicolon-separated clauses:
//
//	FP8_FAULTS="seed=42;resultstore.save.temp=corrupt:0.5@5x2;coord.server.push=http500@3x4"
//
//	seed=<n>                      PRNG seed (default 1); at most once, first
//	<pattern>=<kind>[:<param>][@<from>][%<prob>][x<max>]
//
// where <pattern> is a failpoint name or a prefix ending in '*';
// <kind> is err, enospc, delay (param: duration), torn (param: kept
// fraction), corrupt (param: kept fraction), crash, http500 or drop;
// @<from> makes the rule eligible from the from-th hit on (default 1);
// %<prob> injects with that per-hit probability in (0, 1] (default
// 1; a rule is muted by leaving it out, not by %0); and
// x<max> caps the rule's total injections (default unlimited).
//
// Failpoints decide which fault kinds they can express: error-bearing
// points (store writes, HTTP calls) honor every kind; write points
// additionally honor torn/corrupt via WriteBytes; pure compute points
// honor only delay and crash and ignore injected errors. The injection
// layer itself never touches cell math — arming faults can make runs
// fail, stall or crash, never produce different bytes.
package faultline

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Kind names one fault behavior.
type Kind string

const (
	// KindErr returns a generic injected error.
	KindErr Kind = "err"
	// KindENOSPC returns an error wrapping syscall.ENOSPC.
	KindENOSPC Kind = "enospc"
	// KindDelay sleeps for the rule's Delay, then proceeds normally.
	KindDelay Kind = "delay"
	// KindTorn (write points) truncates the payload to Frac of its
	// bytes and returns ErrTorn — the caller writes the prefix and
	// "dies", leaving a partial temp file like a real crash would.
	KindTorn Kind = "torn"
	// KindCorrupt (write points) truncates the payload to Frac of its
	// bytes and reports success — silent corruption, the way a torn
	// sector looks after the rename already happened.
	KindCorrupt Kind = "corrupt"
	// KindCrash terminates the process (CrashFn, default os.Exit(3)).
	KindCrash Kind = "crash"
	// KindHTTP500 makes HTTP server failpoints answer 500.
	KindHTTP500 Kind = "http500"
	// KindDrop makes HTTP failpoints drop the connection/response.
	KindDrop Kind = "drop"
)

// Sentinel errors callers branch on. Every injected error wraps the
// base ErrInjected, so `errors.Is(err, ErrInjected)` distinguishes a
// simulated fault from a real one (e.g. to skip temp-file cleanup the
// way a genuine crash would).
var (
	ErrInjected = errors.New("faultline: injected fault")
	// ErrTorn marks a torn-write injection (partial bytes were written).
	ErrTorn = fmt.Errorf("torn write: %w", ErrInjected)
	// ErrHTTP500 tells an HTTP server failpoint to answer 500.
	ErrHTTP500 = fmt.Errorf("http 500: %w", ErrInjected)
	// ErrDrop tells an HTTP failpoint to drop the connection.
	ErrDrop = fmt.Errorf("dropped connection: %w", ErrInjected)
)

// CrashExitCode is the exit status KindCrash terminates with —
// distinct from 1/2 so scripts can tell an injected crash from an
// ordinary failure.
const CrashExitCode = 3

// CrashFn performs the KindCrash termination. Tests may swap it to
// observe crashes in-process; the default is os.Exit(CrashExitCode).
var CrashFn = func(name string) { os.Exit(CrashExitCode) }

// Rule is one arming clause: inject Kind at failpoints matching
// Pattern, subject to the hit-count, probability and budget triggers.
type Rule struct {
	// Pattern is a failpoint name, or a prefix ending in '*'.
	Pattern string
	Kind    Kind
	// Delay is the sleep for KindDelay.
	Delay time.Duration
	// Frac is the kept byte fraction for KindTorn/KindCorrupt in (0,1).
	Frac float64
	// From is the 1-based hit number the rule becomes eligible at
	// (0 means 1: eligible from the first hit).
	From int
	// Prob is the per-hit injection probability in (0, 1); 0 means
	// always, and ParsePlan stores %1 as 0 so Plan.String round-trips.
	Prob float64
	// Max caps the rule's total injections (0 = unlimited).
	Max int
}

// Plan is a full arming: a PRNG seed plus ordered rules. The first
// eligible rule matching a hit wins, so order rules from specific to
// general.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// ruleState is a rule plus its injection budget counter.
type ruleState struct {
	Rule
	injected int
}

// state is the armed plan's mutable half.
type state struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []*ruleState
	hits  map[string]int // per-failpoint hit counts
	inj   map[string]int // per-failpoint injection counts
}

// active is nil while disarmed — the entire disarmed cost of a
// failpoint is this one atomic load.
var active atomic.Pointer[state]

// Arm installs a plan (replacing any armed one). An empty plan arms
// nothing but still counts hits, which tests use to assert coverage.
func Arm(p Plan) error {
	for i := range p.Rules {
		if err := p.Rules[i].validate(); err != nil {
			return err
		}
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	st := &state{
		rng:  rand.New(rand.NewSource(int64(seed))),
		hits: map[string]int{},
		inj:  map[string]int{},
	}
	for _, r := range p.Rules {
		rc := r
		st.rules = append(st.rules, &ruleState{Rule: rc})
	}
	active.Store(st)
	return nil
}

// Disarm removes the armed plan; every failpoint reverts to a no-op.
//
//fp8vet:ignore unused coord's fleet tests disarm their chaos plan
func Disarm() { active.Store(nil) }

// EnvVar is the environment variable ArmFromEnv reads.
const EnvVar = "FP8_FAULTS"

// ArmFromEnv arms the plan described by FP8_FAULTS, if set. Returns
// whether a plan was armed; a malformed plan is an error (a typo'd
// chaos spec must fail loudly, not silently run clean).
func ArmFromEnv() (bool, error) {
	spec := os.Getenv(EnvVar)
	if strings.TrimSpace(spec) == "" {
		return false, nil
	}
	p, err := ParsePlan(spec)
	if err != nil {
		return false, fmt.Errorf("%s: %w", EnvVar, err)
	}
	if err := Arm(p); err != nil {
		return false, fmt.Errorf("%s: %w", EnvVar, err)
	}
	return true, nil
}

// validate rejects rules the grammar cannot mean.
func (r *Rule) validate() error {
	if r.Pattern == "" {
		return fmt.Errorf("faultline: rule with empty pattern")
	}
	switch r.Kind {
	case KindErr, KindENOSPC, KindCrash, KindHTTP500, KindDrop:
	case KindDelay:
		if r.Delay <= 0 {
			return fmt.Errorf("faultline: rule %s: delay needs a positive duration parameter", r.Pattern)
		}
	case KindTorn, KindCorrupt:
		if !(r.Frac > 0 && r.Frac < 1) { // also rejects NaN
			return fmt.Errorf("faultline: rule %s: %s needs a kept-fraction parameter in (0,1)", r.Pattern, r.Kind)
		}
	default:
		return fmt.Errorf("faultline: rule %s: unknown kind %q", r.Pattern, r.Kind)
	}
	if r.From < 0 || r.Max < 0 || r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("faultline: rule %s: out-of-range trigger (from=%d prob=%g max=%d)", r.Pattern, r.From, r.Prob, r.Max)
	}
	return nil
}

// ParsePlan parses the FP8_FAULTS grammar (see the package comment).
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	seenSeed := false
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rhs, ok := strings.Cut(clause, "=")
		name, rhs = strings.TrimSpace(name), strings.TrimSpace(rhs)
		if !ok || name == "" || rhs == "" {
			return Plan{}, fmt.Errorf("faultline: bad clause %q (want name=kind[:param][@from][%%prob][xmax])", clause)
		}
		if name == "seed" {
			if seenSeed || len(p.Rules) > 0 {
				return Plan{}, fmt.Errorf("faultline: seed must appear once, before any rule")
			}
			n, err := strconv.ParseUint(rhs, 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("faultline: bad seed %q", rhs)
			}
			p.Seed, seenSeed = n, true
			continue
		}
		r, err := parseRule(name, rhs)
		if err != nil {
			return Plan{}, err
		}
		p.Rules = append(p.Rules, r)
	}
	if len(p.Rules) == 0 {
		return Plan{}, fmt.Errorf("faultline: plan %q has no rules", spec)
	}
	return p, nil
}

// parseRule parses one "<kind>[:<param>][@<from>][%<prob>][x<max>]"
// right-hand side. Triggers may appear in any order after the kind.
func parseRule(pattern, rhs string) (Rule, error) {
	r := Rule{Pattern: pattern}
	// Split the trailing triggers off the kind[:param] head. Triggers
	// start at the first '@', '%' or 'x' that follows the kind/param
	// (durations like "50ms" contain no trigger characters; fractions
	// are digits and dots).
	head := rhs
	var triggers string
	if i := strings.IndexAny(rhs, "@%x"); i >= 0 {
		head, triggers = rhs[:i], rhs[i:]
	}
	kind, param, _ := strings.Cut(head, ":")
	r.Kind = Kind(strings.TrimSpace(kind))
	param = strings.TrimSpace(param)
	switch r.Kind {
	case KindDelay:
		d, err := time.ParseDuration(param)
		if err != nil {
			return Rule{}, fmt.Errorf("faultline: rule %s: bad delay %q", pattern, param)
		}
		r.Delay = d
	case KindTorn, KindCorrupt:
		f, err := strconv.ParseFloat(param, 64)
		if err != nil {
			return Rule{}, fmt.Errorf("faultline: rule %s: bad fraction %q", pattern, param)
		}
		r.Frac = f
	default:
		if param != "" {
			return Rule{}, fmt.Errorf("faultline: rule %s: kind %q takes no parameter", pattern, r.Kind)
		}
	}
	for triggers != "" {
		tag := triggers[0]
		rest := triggers[1:]
		end := strings.IndexAny(rest, "@%x")
		var val string
		if end < 0 {
			val, triggers = rest, ""
		} else {
			val, triggers = rest[:end], rest[end:]
		}
		switch tag {
		case '@':
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Rule{}, fmt.Errorf("faultline: rule %s: bad @from %q", pattern, val)
			}
			r.From = n
		case '%':
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f > 0 && f <= 1) {
				return Rule{}, fmt.Errorf("faultline: rule %s: bad %%prob %q (want (0, 1])", pattern, val)
			}
			if f == 1 {
				f = 0 // always: the default
			}
			r.Prob = f
		case 'x':
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Rule{}, fmt.Errorf("faultline: rule %s: bad xmax %q", pattern, val)
			}
			r.Max = n
		}
	}
	if err := r.validate(); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// String renders the plan in the FP8_FAULTS grammar (round-trips
// through ParsePlan), so a programmatic plan can be logged in the
// shape a shell replay needs.
func (p Plan) String() string {
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	for _, r := range p.Rules {
		rhs := string(r.Kind)
		switch r.Kind {
		case KindDelay:
			rhs += ":" + r.Delay.String()
		case KindTorn, KindCorrupt:
			rhs += ":" + strconv.FormatFloat(r.Frac, 'g', -1, 64)
		}
		if r.From > 0 {
			rhs += "@" + strconv.Itoa(r.From)
		}
		if r.Prob > 0 && r.Prob < 1 {
			rhs += "%" + strconv.FormatFloat(r.Prob, 'g', -1, 64)
		}
		if r.Max > 0 {
			rhs += "x" + strconv.Itoa(r.Max)
		}
		parts = append(parts, r.Pattern+"="+rhs)
	}
	return strings.Join(parts, ";")
}

// matches reports whether the rule's pattern covers the failpoint.
func (r *ruleState) matches(name string) bool {
	if strings.HasSuffix(r.Pattern, "*") {
		return strings.HasPrefix(name, r.Pattern[:len(r.Pattern)-1])
	}
	return r.Pattern == name
}

// decide records a hit on the named failpoint and returns the winning
// rule, or nil when nothing injects this time.
func (st *state) decide(name string) *ruleState {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.hits[name]++
	n := st.hits[name]
	for _, r := range st.rules {
		if !r.matches(name) {
			continue
		}
		from := r.From
		if from == 0 {
			from = 1
		}
		if n < from {
			continue
		}
		if r.Max > 0 && r.injected >= r.Max {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && st.rng.Float64() >= r.Prob {
			// The draw is consumed either way — that is what makes the
			// decision sequence a pure function of the seed and the hit
			// order.
			continue
		}
		r.injected++
		st.inj[name]++
		return r
	}
	return nil
}

// Hit is the generic failpoint: a no-op while disarmed; when armed it
// may sleep (delay), crash the process (crash), or return an injected
// error for the caller to propagate. Torn/corrupt rules at a plain Hit
// point degrade to a generic injected error (only WriteBytes can
// truncate payloads).
func Hit(name string) error {
	st := active.Load()
	if st == nil {
		return nil
	}
	r := st.decide(name)
	if r == nil {
		return nil
	}
	return r.act(name)
}

// act performs a non-write injection.
func (r *ruleState) act(name string) error {
	switch r.Kind {
	case KindDelay:
		time.Sleep(r.Delay)
		return nil
	case KindCrash:
		CrashFn(name)
		return nil // only reached when a test hook declined to exit
	case KindENOSPC:
		return fmt.Errorf("faultline %s: %w: %w", name, ErrInjected, syscall.ENOSPC)
	case KindHTTP500:
		return fmt.Errorf("faultline %s: %w", name, ErrHTTP500)
	case KindDrop:
		return fmt.Errorf("faultline %s: %w", name, ErrDrop)
	default: // KindErr, and torn/corrupt degraded to a plain error
		return fmt.Errorf("faultline %s: %w", name, ErrInjected)
	}
}

// WriteBytes is the write-site failpoint: callers pass the payload
// they are about to write and write what comes back. Disarmed it
// returns the payload untouched. Armed, a torn rule returns a strict
// prefix plus ErrTorn (the caller should write the prefix and abandon
// the file, like a crash mid-write); a corrupt rule returns a strict
// prefix with no error (silent corruption — the write "succeeds");
// every other kind behaves as in Hit.
func WriteBytes(name string, b []byte) ([]byte, error) {
	st := active.Load()
	if st == nil {
		return b, nil
	}
	r := st.decide(name)
	if r == nil {
		return b, nil
	}
	switch r.Kind {
	case KindTorn:
		return truncate(b, r.Frac), fmt.Errorf("faultline %s: %w", name, ErrTorn)
	case KindCorrupt:
		return truncate(b, r.Frac), nil
	default:
		if err := r.act(name); err != nil {
			return nil, err
		}
		return b, nil
	}
}

// truncate keeps a strict prefix of b: at least one byte short, at
// most frac of the length (so even frac near 1 on tiny payloads still
// tears).
func truncate(b []byte, frac float64) []byte {
	n := int(float64(len(b)) * frac)
	if n >= len(b) {
		n = len(b) - 1
	}
	if n < 0 {
		n = 0
	}
	return b[:n]
}

// PointStats is one failpoint's traffic under the armed plan.
type PointStats struct {
	Name     string
	Hits     int
	Injected int
}

// Stats returns per-failpoint hit/injection counts, sorted by name —
// empty while disarmed. Chaos drivers print it so a replayed run can
// be compared decision-for-decision.
func Stats() []PointStats {
	st := active.Load()
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	names := make([]string, 0, len(st.hits))
	for n := range st.hits {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]PointStats, 0, len(names))
	for _, n := range names {
		out = append(out, PointStats{Name: n, Hits: st.hits[n], Injected: st.inj[n]})
	}
	return out
}

// Report renders Stats as one line per failpoint ("" when disarmed).
func Report() string {
	var b strings.Builder
	for _, s := range Stats() {
		fmt.Fprintf(&b, "faultline: %s: %d hits, %d injected\n", s.Name, s.Hits, s.Injected)
	}
	return b.String()
}
