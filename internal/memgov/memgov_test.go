package memgov

import (
	"testing"
	"time"
)

// fakeSource is a sheddable consumer: Shed releases up to the request,
// but never below floor (modeling pinned/unreclaimable bytes).
type fakeSource struct {
	bytes int64
	floor int64
	sheds int
}

func (f *fakeSource) FootprintBytes() int64 { return f.bytes }

func (f *fakeSource) Shed(want int64) int64 {
	f.sheds++
	avail := f.bytes - f.floor
	if avail <= 0 {
		return 0
	}
	if want > avail {
		want = avail
	}
	f.bytes -= want
	return want
}

func TestNilGovernorIsPermissive(t *testing.T) {
	var g *Governor
	if got := g.Refresh(); got != OK {
		t.Fatalf("nil Refresh = %v, want OK", got)
	}
	if !g.AllowIndexBuild() {
		t.Fatal("nil governor vetoed an index build")
	}
	if g.Level() != OK || g.Footprint() != 0 {
		t.Fatalf("nil governor level=%v footprint=%d", g.Level(), g.Footprint())
	}
	g.NoteReject()
	g.AddSource(&fakeSource{})
	if s := g.Stats(); s.Level != "ok" {
		t.Fatalf("nil Stats.Level = %q", s.Level)
	}
	if m := g.Measures(); m != nil {
		t.Fatalf("nil Measures = %v", m)
	}
}

func TestLevelsAndShedding(t *testing.T) {
	g := New(1000, 2000)
	src := &fakeSource{bytes: 500, floor: 100}
	g.AddSource(src)

	if lvl := g.Refresh(); lvl != OK {
		t.Fatalf("below soft: level = %v, want OK", lvl)
	}
	if !g.AllowIndexBuild() {
		t.Fatal("index build vetoed at OK")
	}

	// Above soft but fully sheddable back under it: stays graded Soft
	// for this refresh (footprint was over) only if the post-shed total
	// is still over; here shedding brings it to exactly soft → Soft.
	src.bytes = 1500
	if lvl := g.Refresh(); lvl != Soft {
		t.Fatalf("at soft after shed: level = %v, want Soft", lvl)
	}
	if src.sheds == 0 {
		t.Fatal("governor never called Shed")
	}
	if src.bytes != 1000 {
		t.Fatalf("post-shed footprint = %d, want 1000", src.bytes)
	}
	if g.AllowIndexBuild() {
		t.Fatal("index build allowed at Soft")
	}

	// Unsheddable overage past hard: Hard.
	src.bytes = 3000
	src.floor = 3000
	if lvl := g.Refresh(); lvl != Hard {
		t.Fatalf("pinned past hard: level = %v, want Hard", lvl)
	}
	if g.Footprint() != 3000 {
		t.Fatalf("Footprint = %d, want 3000", g.Footprint())
	}

	// Pressure released: back to OK.
	src.floor = 0
	src.bytes = 200
	if lvl := g.Refresh(); lvl != OK {
		t.Fatalf("after release: level = %v, want OK", lvl)
	}
	if !g.AllowIndexBuild() {
		t.Fatal("index build still vetoed after recovery")
	}
}

func TestSheddingAbsorbsSpike(t *testing.T) {
	// A spike the cache can fully absorb must never surface: post-shed
	// grade is what counts.
	g := New(1000, 2000)
	src := &fakeSource{bytes: 5000, floor: 0}
	g.AddSource(src)
	if lvl := g.Refresh(); lvl == Hard {
		t.Fatalf("fully sheddable spike graded Hard")
	}
	if src.bytes > 1000 {
		t.Fatalf("shed left %d bytes, want <= soft (1000)", src.bytes)
	}
}

func TestMultiSourceProportionalShed(t *testing.T) {
	g := New(1000, 4000)
	big := &fakeSource{bytes: 1500}
	small := &fakeSource{bytes: 500}
	g.AddSource(big)
	g.AddSource(small)
	g.Refresh()
	if big.sheds == 0 || small.sheds == 0 {
		t.Fatalf("shed not spread across sources: big=%d small=%d", big.sheds, small.sheds)
	}
	if got := big.bytes + small.bytes; got > 1100 {
		t.Fatalf("post-shed total = %d, want near soft watermark", got)
	}
}

func TestRetryAfterScalesAndClamps(t *testing.T) {
	g := New(1000, 2000)
	src := &fakeSource{bytes: 2000, floor: 2000}
	g.AddSource(src)
	g.Refresh()
	at := g.RetryAfter()
	if at < time.Second || at > 2*time.Second {
		t.Fatalf("RetryAfter at watermark = %v, want ~1s", at)
	}
	src.bytes = 200000
	src.floor = 200000
	g.Refresh()
	if at := g.RetryAfter(); at != 15*time.Second {
		t.Fatalf("RetryAfter far past watermark = %v, want clamped 15s", at)
	}
}

func TestStatsCounters(t *testing.T) {
	g := New(1000, 2000)
	src := &fakeSource{bytes: 2500, floor: 2500}
	g.AddSource(src)
	g.Refresh()
	g.AllowIndexBuild()
	g.NoteReject()
	s := g.Stats()
	if s.Level != "hard" {
		t.Fatalf("Stats.Level = %q, want hard", s.Level)
	}
	if s.SoftEnters != 1 || s.HardRejects != 1 || s.VetoedBuilds != 1 {
		t.Fatalf("counters = %+v", s)
	}
	if s.SoftLimit != 1000 || s.HardLimit != 2000 || s.Footprint != 2500 {
		t.Fatalf("limits/footprint = %+v", s)
	}
	if len(g.Measures()) != 3 {
		t.Fatalf("Measures at Hard = %v", g.Measures())
	}
}

func TestHardOnlyConfig(t *testing.T) {
	g := New(0, 2000)
	src := &fakeSource{bytes: 2500, floor: 2500}
	g.AddSource(src)
	if lvl := g.Refresh(); lvl != Hard {
		t.Fatalf("hard-only config: level = %v, want Hard", lvl)
	}
}
