// Package faultinject provides deterministic fault injection at named
// points threaded through the engine's containment-critical paths.
//
// A fault point is a call to Inject (returns an error to propagate) at
// a place where real failures are possible: cache publication, cold
// revival, scheduler dispatch, a sharded query's run on the whole
// tables, admission, spilling.
// Points are zero-cost no-ops while disarmed — one relaxed atomic load
// and a predictable branch, no allocation.
//
// Arming is a spec string, settable through Ablations.Faults or the
// HASHSTASH_FAULTS environment variable:
//
//	point=mode:trigger[,point=mode:trigger...]
//
//	mode     err            Inject returns ErrInjected (wrapped per point)
//	         panic          Inject panics with the same error
//	trigger  once           first hit only
//	         every:N        every Nth hit (1-based: hits N, 2N, ...)
//	         p:P[:seed]     seeded probability P in [0,1] per hit
//
// Example:
//
//	HASHSTASH_FAULTS="exec.morsel=panic:p:0.02:7,htcache.publish=err:every:3"
//
// Triggers are deterministic for a fixed seed and hit sequence, so a
// chaos failure replays exactly under the same schedule.
package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hashstash/hashstasherr"
)

// Registered fault-point names. Inject accepts any string, but the
// chaos suite arms exactly this catalog.
const (
	// HTCachePublish fires in htcache.PublishWidened before the CAS.
	HTCachePublish = "htcache.publish"
	// HTCacheRevive fires in the cold-tier revival path before the
	// rebuilt artifact republishes.
	HTCacheRevive = "htcache.revive"
	// SchedDispatch fires when the scheduler seeds a job's tasks into
	// the shared morsel queue.
	SchedDispatch = "sched.dispatch"
	// ExecMorsel fires at the head of every morsel/pipeline stream —
	// the highest-frequency point, used to simulate operator panics.
	ExecMorsel = "exec.morsel"
	// ShardExchange fires as the router retargets a query that is not
	// co-partitioned at the whole tables, before it plans on shard 0.
	ShardExchange = "shard.exchange"
	// ServerAdmit fires in server admission, before the statement is
	// parsed.
	ServerAdmit = "server.admit"
	// SpillEncode fires while encoding a demoted artifact to its
	// compact cold form.
	SpillEncode = "spill.encode"
)

// Catalog returns every registered point name.
func Catalog() []string {
	return []string{
		HTCachePublish, HTCacheRevive, SchedDispatch, ExecMorsel,
		ShardExchange, ServerAdmit, SpillEncode,
	}
}

// ErrInjected is the root of every injected fault; wrapped per point so
// messages name the site. It deliberately also wraps
// hashstasherr.ErrInternal: an injected fault is classified (status
// mapping, chaos assertions) exactly like a real contained failure.
var ErrInjected = fmt.Errorf("injected fault: %w", hashstasherr.ErrInternal)

const (
	modeErr = iota
	modePanic
)

const (
	trigOnce = iota
	trigEveryN
	trigProb
)

// pointState is one armed point. Trigger state (hit counters, PRNG
// position) advances atomically so concurrent hits stay deterministic
// in aggregate (every-Nth fires on exact global hit multiples).
type pointState struct {
	name string
	mode int
	trig int
	n    uint64 // every:N modulus
	prob float64
	rng  atomic.Uint64 // splitmix64 state for p:
	hits atomic.Uint64
	err  error // prebuilt: "injected fault at <point>"
}

func (p *pointState) shouldFire() bool {
	switch p.trig {
	case trigOnce:
		return p.hits.Add(1) == 1
	case trigEveryN:
		return p.hits.Add(1)%p.n == 0
	default:
		p.hits.Add(1)
		// splitmix64 step; uniform in [0,1).
		x := p.rng.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return float64(x>>11)/(1<<53) < p.prob
	}
}

var (
	armed  atomic.Bool
	mu     sync.Mutex
	points atomic.Pointer[map[string]*pointState]
)

// Inject is the fault point: nil while disarmed (the universal fast
// path), and when the named point's trigger fires it either returns
// the point's injected error or panics with it, per the armed mode.
func Inject(point string) error {
	if !armed.Load() {
		return nil
	}
	m := points.Load()
	if m == nil {
		return nil
	}
	p := (*m)[point]
	if p == nil || !p.shouldFire() {
		return nil
	}
	if p.mode == modePanic {
		panic(p.err)
	}
	return p.err
}

// Arm parses a spec and arms its points, replacing any previous spec.
// An empty spec disarms. Unknown point names are allowed (they arm a
// point nothing calls) so specs survive catalog drift; malformed
// grammar is an error and leaves the previous arming untouched.
func Arm(spec string) error {
	mu.Lock()
	defer mu.Unlock()
	spec = strings.TrimSpace(spec)
	if spec == "" {
		armed.Store(false)
		points.Store(nil)
		return nil
	}
	m := make(map[string]*pointState)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return fmt.Errorf("faultinject: bad point spec %q (want point=mode:trigger)", part)
		}
		p, err := parsePoint(name, strings.TrimSpace(rest))
		if err != nil {
			return err
		}
		m[name] = p
	}
	points.Store(&m)
	armed.Store(len(m) > 0)
	return nil
}

func parsePoint(name, rest string) (*pointState, error) {
	p := &pointState{
		name: name,
		err:  fmt.Errorf("%w at %s", ErrInjected, name),
	}
	mode, trigger, _ := strings.Cut(rest, ":")
	switch mode {
	case "err", "":
		p.mode = modeErr
	case "panic":
		p.mode = modePanic
	default:
		return nil, fmt.Errorf("faultinject: %s: unknown mode %q (want err|panic)", name, mode)
	}
	switch {
	case trigger == "" || trigger == "once":
		p.trig = trigOnce
	case strings.HasPrefix(trigger, "every:"):
		n, err := strconv.ParseUint(strings.TrimPrefix(trigger, "every:"), 10, 64)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("faultinject: %s: bad every:N trigger %q", name, trigger)
		}
		p.trig, p.n = trigEveryN, n
	case strings.HasPrefix(trigger, "p:"):
		fields := strings.Split(strings.TrimPrefix(trigger, "p:"), ":")
		prob, err := strconv.ParseFloat(fields[0], 64)
		if err != nil || prob < 0 || prob > 1 {
			return nil, fmt.Errorf("faultinject: %s: bad p:P trigger %q", name, trigger)
		}
		var seed uint64 = 0x243f6a8885a308d3
		if len(fields) > 1 {
			seed, err = strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: %s: bad seed in %q", name, trigger)
			}
		}
		p.trig, p.prob = trigProb, prob
		// Mix the point name into the seed so identical probabilities at
		// different points fire on different schedules.
		for _, c := range name {
			seed = (seed ^ uint64(c)) * 0x100000001b3
		}
		p.rng.Store(seed)
	default:
		return nil, fmt.Errorf("faultinject: %s: unknown trigger %q (want once|every:N|p:P[:seed])", name, trigger)
	}
	return p, nil
}

// Disarm turns every point off.
func Disarm() { _ = Arm("") }

// Fired returns how many times the named point has been hit since
// arming (hits, not fires) — chaos uses it to assert points were
// actually exercised.
func Fired(point string) uint64 {
	m := points.Load()
	if m == nil {
		return 0
	}
	if p := (*m)[point]; p != nil {
		return p.hits.Load()
	}
	return 0
}

// IsInjected reports whether err originated at a fault point.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }
