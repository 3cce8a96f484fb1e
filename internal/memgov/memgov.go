// Package memgov is the engine-wide memory governor: an accountant
// over the caches' O(1) byte counters with two watermarks and graded
// responses, so memory pressure degrades service instead of killing
// the process.
//
//	level   condition            measures
//	OK      footprint < soft     none
//	Soft    soft <= fp < hard    shed cache down to soft, veto new
//	                             index builds
//	Hard    hard <= fp           all of the above, plus admission
//	                             returns ErrOverloaded with Retry-After
//
// Refresh is called at admission (and by /healthz): it sums the
// sources, sheds above the soft watermark, and grades the *post-shed*
// footprint — a spike the cache can absorb by dropping cold artifacts
// never surfaces to clients.
package memgov

import (
	"sync"
	"sync/atomic"
	"time"
)

// Level is the governor's pressure grade.
type Level int32

const (
	// OK: below the soft watermark; no measures active.
	OK Level = iota
	// Soft: shedding, index builds vetoed.
	Soft
	// Hard: admission refused with Retry-After.
	Hard
)

func (l Level) String() string {
	switch l {
	case OK:
		return "ok"
	case Soft:
		return "soft"
	default:
		return "hard"
	}
}

// Source is one accounted memory consumer (the engine's htcache).
// FootprintBytes must be O(1); Shed releases up to the given bytes and
// returns what it actually freed.
type Source interface {
	FootprintBytes() int64
	Shed(bytes int64) int64
}

// Governor grades total source footprint against the watermarks. All
// methods are nil-receiver-safe (a nil governor reports OK and allows
// everything), so call sites need no "is governance configured"
// branches.
type Governor struct {
	soft, hard int64

	mu      sync.Mutex
	sources []Source

	level     atomic.Int32
	footprint atomic.Int64

	softEnters   atomic.Int64
	hardRejects  atomic.Int64
	shedBytes    atomic.Int64
	vetoedBuilds atomic.Int64
}

// New builds a governor with the given watermarks (bytes). soft <= 0
// disables shedding/degradation, hard <= 0 disables admission refusal;
// both zero is a no-op governor (callers usually pass nil instead).
func New(soft, hard int64) *Governor {
	if soft <= 0 && hard > 0 {
		soft = hard
	}
	return &Governor{soft: soft, hard: hard}
}

// AddSource registers a memory consumer.
func (g *Governor) AddSource(s Source) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.sources = append(g.sources, s)
	g.mu.Unlock()
}

// Refresh re-sums the sources, sheds down toward the soft watermark
// when above it, and grades the post-shed footprint. Returns the new
// level.
func (g *Governor) Refresh() Level {
	if g == nil {
		return OK
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	total := int64(0)
	for _, s := range g.sources {
		total += s.FootprintBytes()
	}
	if g.soft > 0 && total >= g.soft {
		// Shed the overage proportionally to each source's share, then
		// re-sum: the grade reflects what pressure remains after the
		// caches gave back what they could.
		over := total - g.soft
		for _, s := range g.sources {
			fp := s.FootprintBytes()
			if fp <= 0 {
				continue
			}
			share := over * fp / total
			if share <= 0 {
				share = over
			}
			g.shedBytes.Add(s.Shed(share))
		}
		total = 0
		for _, s := range g.sources {
			total += s.FootprintBytes()
		}
	}
	lvl := OK
	switch {
	case g.hard > 0 && total >= g.hard:
		lvl = Hard
	case g.soft > 0 && total >= g.soft:
		lvl = Soft
	}
	if lvl >= Soft && Level(g.level.Load()) == OK {
		g.softEnters.Add(1)
	}
	g.footprint.Store(total)
	g.level.Store(int32(lvl))
	return lvl
}

// Level returns the grade computed by the last Refresh.
func (g *Governor) Level() Level {
	if g == nil {
		return OK
	}
	return Level(g.level.Load())
}

// Footprint returns the byte total of the last Refresh.
func (g *Governor) Footprint() int64 {
	if g == nil {
		return 0
	}
	return g.footprint.Load()
}

// AllowIndexBuild reports whether a new index build may proceed: the
// ski-rental gate is forced closed at Soft and above (an index build
// is a deliberate new allocation — exactly what pressure forbids).
func (g *Governor) AllowIndexBuild() bool {
	if g == nil || Level(g.level.Load()) == OK {
		return true
	}
	g.vetoedBuilds.Add(1)
	return false
}

// RetryAfter computes the pause to hand a rejected client: one second
// at the hard watermark, growing linearly with the overage fraction,
// clamped to 15s. Deterministic from the last refreshed footprint.
func (g *Governor) RetryAfter() time.Duration {
	if g == nil || g.hard <= 0 {
		return time.Second
	}
	over := g.footprint.Load() - g.hard
	if over < 0 {
		over = 0
	}
	d := time.Second + time.Duration(float64(4*time.Second)*float64(over)/float64(g.hard))
	if d > 15*time.Second {
		d = 15 * time.Second
	}
	return d
}

// NoteReject counts one refused admission (the server calls it when it
// turns a Hard grade into ErrOverloaded).
func (g *Governor) NoteReject() {
	if g != nil {
		g.hardRejects.Add(1)
	}
}

// Stats is a monitoring snapshot.
type Stats struct {
	Level        string `json:"level"`
	Footprint    int64  `json:"footprint_bytes"`
	SoftLimit    int64  `json:"soft_limit_bytes"`
	HardLimit    int64  `json:"hard_limit_bytes"`
	SoftEnters   int64  `json:"soft_enters"`
	HardRejects  int64  `json:"hard_rejects"`
	ShedBytes    int64  `json:"shed_bytes"`
	VetoedBuilds int64  `json:"vetoed_index_builds"`
}

// Stats returns the governor's counters (zero value for nil).
func (g *Governor) Stats() Stats {
	if g == nil {
		return Stats{Level: OK.String()}
	}
	return Stats{
		Level:        g.Level().String(),
		Footprint:    g.footprint.Load(),
		SoftLimit:    g.soft,
		HardLimit:    g.hard,
		SoftEnters:   g.softEnters.Load(),
		HardRejects:  g.hardRejects.Load(),
		ShedBytes:    g.shedBytes.Load(),
		VetoedBuilds: g.vetoedBuilds.Load(),
	}
}

// Measures lists the currently active degradation measures, for
// /healthz.
func (g *Governor) Measures() []string {
	switch g.Level() {
	case Soft:
		return []string{"cache-shedding", "index-builds-vetoed"}
	case Hard:
		return []string{"cache-shedding", "index-builds-vetoed", "admission-rejected"}
	default:
		return nil
	}
}
