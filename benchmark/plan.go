package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// A plan is everything a live workload's inputs consist of: the streams,
// their beat schedule, and the fault timeline. It is a pure function of
// (workload, seed, seconds); the system under test only ever receives the
// datagrams the generator makes from it.
//
// All instants in a plan are nanoseconds relative to t0, the due time of
// the first beat of the first stream.

type streamClass struct {
	interval time.Duration
	margin   time.Duration
	lo, hi   int // streams[lo:hi], sorted by phase
}

type streamPlan struct {
	name    string
	phase   int64 // first beat due at t0+phase, then every interval
	class   uint8
	group   int32 // zone (storm) or cohort (fleet); -1 = none
	dual    bool  // also sent to the second monitor (fleet canaries)
	prewarm int   // back-dated arrivals fed at set-up
}

type opKind uint8

const (
	opKill    opKind = iota // stream stops; the process is dead
	opRestart               // stream resumes with incarnation+1, seq from 1
	opMute                  // group partitioned: beats are made but not sent
	opUnmute                // partition heals; sequence numbers carried on
)

type op struct {
	at     int64
	kind   opKind
	target int32 // stream index (kill/restart) or group (mute/unmute)
}

// fault is one injected failure of one stream and, once the run is over,
// everything observed about its verdict.
type fault struct {
	stream      int32
	at          int64 // injected fault instant
	firstMissed int64 // due time of the first beat the fault suppresses

	// Observations, absolute clock nanoseconds (0 = not observed).
	tau     int64 // freshness point read when the verdict arrived
	eventAt int64 // Event.At of the suspect verdict
	busAt   int64 // in-process subscriber receipt
	receipt int64 // consumer (/watch or /fleet) receipt
}

type plan struct {
	workload string
	seconds  int
	classes  []streamClass
	streams  []streamPlan
	groups   int
	ops      []op
	faults   []fault
	// faultsOf lists each stream's fault indices in time order.
	faultsOf map[int32][]int32

	warm     int64 // timed phase begins at t0+warm
	timedEnd int64 // and ends here; the generator stops
	deadline int64 // a fault with no verdict this long after it is missed
}

// Detector classes. Every live stream beats once a second except the
// fleet's bulk population, which beats every five. The margins are wide
// enough that the stalls a shared two-core VM produces (70–110 ms were
// seen, from disk writes and collections) do not read as failures: a
// spurious suspicion is the box's doing, not the program's, and at
// 40 000 heartbeats a second one 100 ms stall makes thousands.
var (
	classFast = detCfg{Interval: time.Second, Margin: 250 * time.Millisecond}
	classSlow = detCfg{Interval: 5 * time.Second, Margin: 500 * time.Millisecond}
)

const (
	warmPhase    = time.Second             // every 1 s stream has beaten live once
	faultLeadIn  = 200 * time.Millisecond  // first fault this long into the timed phase
	restartAfter = 2500 * time.Millisecond // kill → restart, partition → heal
)

// quietTail is how long before the end of the timed phase the last fault
// may be injected, so its verdict still lands inside the phase.
func quietTail(c detCfg) time.Duration { return c.Interval + c.Margin + 500*time.Millisecond }

// Steps of the additive low-discrepancy sequences the plans draw fault
// phases from: the golden ratio in one dimension, and the two
// plastic-number steps where two independent phases are needed (the same
// step twice would tie the second phase to the first).
const (
	stepGolden   = 0.6180339887498949
	stepPlastic1 = 0.7548776662466927
	stepPlastic2 = 0.5698402909980532
)

// stratified yields the k-th point of an additive sequence rotated by a
// seeded offset: uniform marginally, but evenly spread over any run of
// consecutive k, so a median over a few hundred faults does not carry
// the sampling noise independent draws would.
func stratified(offset, step float64, k int) float64 {
	_, f := math.Modf(offset + float64(k)*step)
	return f
}

func buildPlan(workload string, seed int64, seconds int, scale float64) (*plan, error) {
	p := &plan{workload: workload, seconds: seconds, faultsOf: make(map[int32][]int32)}
	p.warm = int64(warmPhase)
	p.timedEnd = p.warm + int64(seconds)*int64(time.Second)
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "steady":
		p.planSteady(rng, scale)
	case "storm":
		p.planStorm(rng, scale)
	case "fleet":
		p.planFleet(rng, scale)
	default:
		return nil, fmt.Errorf("no live plan for workload %q", workload)
	}
	sort.SliceStable(p.ops, func(i, j int) bool { return p.ops[i].at < p.ops[j].at })
	for i := range p.faults {
		s := p.faults[i].stream
		p.faultsOf[s] = append(p.faultsOf[s], int32(i))
	}
	return p, nil
}

// prewarmCount is how many back-dated arrivals stream i is fed at set-up:
// a full window, slots closed slots, and a stagger so that slots close
// all through the run rather than all at once. The smaller populations
// are warmed through more slots, so every workload's set-up is at least
// half a second of the same deterministic work.
func prewarmCount(i, slots int) int { return detWindow + slots*detSlot + 1 + i%detSlot }

func scaled(n int, scale float64) int {
	if m := int(float64(n) * scale); m >= 1 {
		return m
	}
	return 1
}

// addClass appends n evenly phased streams named by nameOf.
func (p *plan) addClass(c detCfg, n, slots int, nameOf func(i int) (name string, group int32, dual bool)) {
	lo := len(p.streams)
	ci := uint8(len(p.classes))
	for i := 0; i < n; i++ {
		name, group, dual := nameOf(i)
		p.streams = append(p.streams, streamPlan{
			name: name, class: ci, group: group, dual: dual,
			phase:   int64(c.Interval) * int64(i) / int64(n),
			prewarm: prewarmCount(i, slots),
		})
	}
	p.classes = append(p.classes, streamClass{interval: c.Interval, margin: c.Margin, lo: lo, hi: len(p.streams)})
}

// beatAtOrAfter is the due time of stream s's first beat at or after t.
func (p *plan) beatAtOrAfter(s int32, t int64) int64 {
	sp := &p.streams[s]
	iv := int64(p.classes[sp.class].interval)
	if t <= sp.phase {
		return sp.phase
	}
	return sp.phase + (t-sp.phase+iv-1)/iv*iv
}

// killOne schedules a crash of stream s whose first suppressed beat is
// the one due at d, wait×interval after the crash, plus its restart.
func (p *plan) killOne(s int32, d int64, wait float64) {
	iv := float64(p.classes[p.streams[s].class].interval)
	at := d - int64(wait*iv)
	p.faults = append(p.faults, fault{stream: s, at: at, firstMissed: d})
	p.ops = append(p.ops, op{at: at, kind: opKill, target: s})
	if r := at + int64(restartAfter); r < p.timedEnd-int64(faultLeadIn) {
		p.ops = append(p.ops, op{at: r, kind: opRestart, target: s})
	}
}

// clampWait keeps a stratified wait strictly inside (0,1) so the crash
// falls strictly between two beats.
func clampWait(u float64) float64 { return 0.002 + 0.996*u }

// planSteady: a large flat population, independent crashes.
func (p *plan) planSteady(rng *rand.Rand, scale float64) {
	n := scaled(40_000, scale)
	p.addClass(classFast, n, 1, func(i int) (string, int32, bool) { return fmt.Sprintf("node-%05d", i), -1, false })
	p.deadline = 3 * int64(classFast.Interval+classFast.Margin)

	const rate = 200.0 // crashes per second
	iv := int64(classFast.Interval)
	start := p.warm + int64(faultLeadIn)
	stop := p.timedEnd - int64(quietTail(classFast))
	used := make([]bool, n)
	u0 := rng.Float64()
	for k := 0; ; k++ {
		slot := start + int64((float64(k)+rng.Float64())/rate*1e9)
		if slot >= stop {
			break
		}
		wait := clampWait(stratified(u0, stepGolden, k))
		d := slot + int64(wait*float64(iv))
		// The stream whose beat grid passes closest to d, probing forward
		// past streams already crashed once.
		i := int(float64(d%iv) / float64(iv) * float64(n))
		for tries := 0; used[i%n] && tries < n; tries++ {
			i++
		}
		i %= n
		if used[i] {
			break // every stream used; cannot happen at this rate
		}
		used[i] = true
		p.killOne(int32(i), p.beatAtOrAfter(int32(i), d-iv/2), wait)
	}
}

// Storm topology: zones × racks × members, rack members phase-aligned.
const (
	stormZones   = 10
	stormRacks   = 20
	stormMembers = 100
)

func (p *plan) planStorm(rng *rand.Rand, scale float64) {
	members := scaled(stormMembers, scale)
	racks := stormZones * stormRacks
	iv := int64(classFast.Interval)
	lo := len(p.streams)
	// Rack phases come from a low-discrepancy sequence, not an even grid:
	// an even grid's spacing (5 ms) divides the wheel tick, which would
	// give every rack of a partition the same position inside a tick and
	// leave a run with a dozen distinct lags instead of thousands.
	phases := make([]int64, racks)
	for r := range phases {
		phases[r] = int64(stratified(0, stepGolden, r+1) * float64(iv))
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i] < phases[j] })
	for r, phase := range phases {
		// Zones interleave along the interval, so one zone's racks are
		// spread over all of it.
		z, rr := r%stormZones, r/stormZones
		for m := 0; m < members; m++ {
			p.streams = append(p.streams, streamPlan{
				name:    fmt.Sprintf("dc/zone-%d/rack-%02d/s-%02d", z, rr, m),
				class:   0,
				group:   int32(z),
				phase:   phase,
				prewarm: prewarmCount(r*members+m, 6),
			})
		}
	}
	p.classes = append(p.classes, streamClass{interval: classFast.Interval, margin: classFast.Margin, lo: lo, hi: len(p.streams)})
	p.groups = stormZones
	p.deadline = 3 * int64(classFast.Interval+classFast.Margin)

	start := p.warm + int64(faultLeadIn)
	stop := p.timedEnd - int64(quietTail(classFast))
	for k := 0; ; k++ {
		// One zone a second, the instant jittered so it never locks to
		// the wheel tick or to a rack's beat grid.
		at := start + int64(k)*int64(time.Second) + rng.Int63n(int64(200*time.Millisecond))
		if at >= stop {
			break
		}
		z := int32(k % stormZones)
		p.ops = append(p.ops, op{at: at, kind: opMute, target: z})
		p.ops = append(p.ops, op{at: at + int64(restartAfter), kind: opUnmute, target: z})
		for s := range p.streams {
			if p.streams[s].group == z {
				p.faults = append(p.faults, fault{stream: int32(s), at: at, firstMissed: p.beatAtOrAfter(int32(s), at)})
			}
		}
	}
}

// Fleet topology: cohorts of slow bulk streams plus fast canaries, the
// only kill-eligible streams, which a second monitor watches too.
const (
	fleetCohorts  = 64
	fleetBulk     = 16_000
	fleetCanaries = 1024
	fleetRollup   = 500 * time.Millisecond
	fleetPoll     = 50 * time.Millisecond
)

func (p *plan) planFleet(rng *rand.Rand, scale float64) {
	bulk := scaled(fleetBulk, scale)
	p.addClass(classSlow, bulk, 3, func(i int) (string, int32, bool) {
		c := i % fleetCohorts
		return fmt.Sprintf("fleet/c-%02d/s-%06d", c, i), int32(c), false
	})
	p.addClass(classFast, fleetCanaries, 3, func(i int) (string, int32, bool) {
		c := i % fleetCohorts
		return fmt.Sprintf("fleet/c-%02d/k-%02d", c, i/fleetCohorts), int32(c), true
	})
	p.groups = fleetCohorts
	p.deadline = 3 * int64(classFast.Interval+classFast.Margin)

	const rate = 40.0 // kills per second, one outstanding per cohort
	can := p.classes[1]
	iv := int64(can.interval)
	roll := int64(fleetRollup)
	start := p.warm + int64(faultLeadIn)
	stop := p.timedEnd - int64(quietTail(classFast)) - roll
	cohortFree := make([]int64, fleetCohorts) // cohort may be hit again from here
	used := make([]bool, fleetCanaries)
	u0, w0 := rng.Float64(), rng.Float64()
	for k := 0; ; k++ {
		slot := start + int64((float64(k)+rng.Float64())/rate*1e9)
		if slot >= stop {
			break
		}
		wait := clampWait(stratified(u0, stepPlastic1, k))
		// Place the freshness point (first missed beat + margin) at a
		// stratified phase of the roll-up period: what a verdict waits
		// for on this workload is the next roll-up.
		want := (int64(stratified(w0, stepPlastic2, k)*float64(roll)) - int64(can.margin)%roll + roll) % roll
		d := slot + int64(wait*float64(iv))
		d += (want - d%roll + roll) % roll
		// Nearest unused canary, by beat phase, in a cohort with no
		// kill outstanding.
		best, bestDist := -1, int64(math.MaxInt64)
		for j := 0; j < fleetCanaries; j++ {
			sp := &p.streams[can.lo+j]
			if used[j] || cohortFree[sp.group] > d-iv/2 {
				continue
			}
			dist := (sp.phase - d%iv + iv) % iv
			if dist > iv/2 {
				dist = iv - dist
			}
			if dist < bestDist {
				best, bestDist = j, dist
			}
		}
		if best < 0 {
			continue
		}
		used[best] = true
		s := int32(can.lo + best)
		first := p.beatAtOrAfter(s, d-iv/2)
		// The cohort's next victim may first miss a beat once this one's
		// verdict has had a wheel tick, a roll-up and a poll to surface.
		cohortFree[p.streams[s].group] = first + roll + int64(4*fleetPoll)
		p.killOne(s, first, wait)
	}
}

// fingerprint serialises the timeline; two plans with equal fingerprints
// inject byte-identical faults.
func (p *plan) fingerprint() []byte {
	var b []byte
	for _, o := range p.ops {
		b = binary.BigEndian.AppendUint64(b, uint64(o.at))
		b = append(b, byte(o.kind))
		b = binary.BigEndian.AppendUint32(b, uint32(o.target))
	}
	for _, f := range p.faults {
		b = binary.BigEndian.AppendUint32(b, uint32(f.stream))
		b = binary.BigEndian.AppendUint64(b, uint64(f.at))
		b = binary.BigEndian.AppendUint64(b, uint64(f.firstMissed))
	}
	return b
}
