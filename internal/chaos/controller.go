package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// DefaultLogCap bounds the injection log (entries); older drills stay
// inspectable without letting a long soak grow memory without bound.
const DefaultLogCap = 8192

// Counters is the controller's monotonic injection-counter snapshot.
type Counters struct {
	SentSeen     uint64 `json:"sent_seen"`     // outbound datagrams inspected
	RecvSeen     uint64 `json:"recv_seen"`     // inbound datagrams inspected
	LossDrops    uint64 `json:"loss_drops"`    // dropped by the loss channel
	PartDrops    uint64 `json:"part_drops"`    // dropped by a partition
	Delayed      uint64 `json:"delayed"`       // deliveries postponed
	Reordered    uint64 `json:"reordered"`     // deliveries held back past successors
	Duplicated   uint64 `json:"duplicated"`    // extra copies injected
	Truncated    uint64 `json:"truncated"`     // payloads cut short
	Overflow     uint64 `json:"overflow"`      // deliveries lost to a full chaos queue
	LogDropped   uint64 `json:"log_dropped"`   // decisions not logged (cap reached)
	StepsArmed   uint64 `json:"steps_armed"`   // impairments armed (manual or scenario)
	StepsCleared uint64 `json:"steps_cleared"` // impairments disarmed
}

// armed is one live impairment plus its per-impairment channel state.
type armed struct {
	id    uint64
	imp   Impairment
	ge    *stats.GilbertElliott // loss only
	since clock.Time
	until clock.Time // 0 = indefinite
}

// Controller owns the impairment set, the seeded randomness, and the
// injection log shared by every Endpoint wrapped through it. Arm,
// Disarm, and Play may be called at runtime while traffic flows; all
// methods are safe for concurrent use.
type Controller struct {
	clk clock.Clock

	mu       sync.Mutex
	rng      *rand.Rand
	seed     int64
	armedSet []*armed // ascending id: decisions apply in arm order
	nextID   uint64
	clocks   []*SkewedClock
	scenario string
	log      bytes.Buffer
	logN     int
	decided  uint64 // decision ordinal (the log's first column)

	sentSeen   atomic.Uint64
	recvSeen   atomic.Uint64
	lossDrops  atomic.Uint64
	partDrops  atomic.Uint64
	delayed    atomic.Uint64
	reordered  atomic.Uint64
	duplicated atomic.Uint64
	truncated  atomic.Uint64
	overflow   atomic.Uint64
	logDropped atomic.Uint64
	stepsArm   atomic.Uint64
	stepsClear atomic.Uint64
}

// NewController builds an idle controller (no impairments armed) drawing
// injection randomness from seed (0 means 1). nil clk defaults to the
// real clock.
func NewController(clk clock.Clock, seed int64) *Controller {
	if clk == nil {
		clk = clock.NewReal()
	}
	if seed == 0 {
		seed = 1
	}
	return &Controller{
		clk:  clk,
		rng:  rand.New(rand.NewSource(seed)),
		seed: seed,
	}
}

// Seed returns the active randomness seed.
func (c *Controller) Seed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seed
}

// Arm activates an impairment immediately and returns its id for
// Disarm. Invalid impairments are rejected.
func (c *Controller) Arm(im Impairment) (uint64, error) {
	return c.armUntil(im, 0)
}

func (c *Controller) armUntil(im Impairment, until clock.Time) (uint64, error) {
	if err := im.Validate(); err != nil {
		return 0, err
	}
	now := c.clk.Now()
	c.mu.Lock()
	c.nextID++
	a := &armed{id: c.nextID, imp: im, since: now, until: until}
	if im.Kind == KindLoss {
		burst := im.Burst
		if burst < 1 {
			burst = 1
		}
		a.ge = stats.NewGilbertElliott(im.Rate, burst)
	}
	c.armedSet = append(c.armedSet, a)
	var clocks []*SkewedClock
	if im.Kind == KindSkew {
		clocks = append(clocks, c.clocks...)
	}
	id := a.id
	c.mu.Unlock()
	c.stepsArm.Add(1)
	for _, sc := range clocks {
		sc.SetSkew(clock.Duration(im.Offset), im.DriftPPM)
	}
	return id, nil
}

// Disarm deactivates an armed impairment; it reports whether the id was
// live. Disarming a skew impairment steps attached clocks back to zero
// skew unless another skew impairment remains armed.
func (c *Controller) Disarm(id uint64) bool {
	c.mu.Lock()
	idx := -1
	var wasSkew bool
	for i, a := range c.armedSet {
		if a.id == id {
			idx, wasSkew = i, a.imp.Kind == KindSkew
			break
		}
	}
	if idx < 0 {
		c.mu.Unlock()
		return false
	}
	c.armedSet = append(c.armedSet[:idx], c.armedSet[idx+1:]...)
	var reset, apply []*SkewedClock
	var remaining Impairment
	if wasSkew {
		// The newest remaining skew (if any) takes over; else reset.
		found := false
		for i := len(c.armedSet) - 1; i >= 0; i-- {
			if c.armedSet[i].imp.Kind == KindSkew {
				remaining, found = c.armedSet[i].imp, true
				break
			}
		}
		if found {
			apply = append(apply, c.clocks...)
		} else {
			reset = append(reset, c.clocks...)
		}
	}
	c.mu.Unlock()
	c.stepsClear.Add(1)
	for _, sc := range reset {
		sc.SetSkew(0, 0)
	}
	for _, sc := range apply {
		sc.SetSkew(clock.Duration(remaining.Offset), remaining.DriftPPM)
	}
	return true
}

// DisarmAll clears every impairment and resets attached clocks.
func (c *Controller) DisarmAll() {
	c.mu.Lock()
	cleared := len(c.armedSet)
	c.armedSet = nil
	clocks := append([]*SkewedClock(nil), c.clocks...)
	c.mu.Unlock()
	c.stepsClear.Add(uint64(cleared))
	for _, sc := range clocks {
		sc.SetSkew(0, 0)
	}
}

// AttachClock registers a SkewedClock so skew impairments drive it. Any
// currently armed skew applies immediately.
func (c *Controller) AttachClock(sc *SkewedClock) {
	c.mu.Lock()
	c.clocks = append(c.clocks, sc)
	var im Impairment
	found := false
	for i := len(c.armedSet) - 1; i >= 0; i-- {
		if c.armedSet[i].imp.Kind == KindSkew {
			im, found = c.armedSet[i].imp, true
			break
		}
	}
	c.mu.Unlock()
	if found {
		sc.SetSkew(clock.Duration(im.Offset), im.DriftPPM)
	}
}

// ArmedView is one active impairment as reported by Active / the /chaos
// endpoint.
type ArmedView struct {
	ID    uint64     `json:"id"`
	Since int64      `json:"since_ns"`
	Until int64      `json:"until_ns,omitempty"` // 0 = indefinite
	Imp   Impairment `json:"impairment"`
}

// Active lists the armed impairments in arm order.
func (c *Controller) Active() []ArmedView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ArmedView, 0, len(c.armedSet))
	for _, a := range c.armedSet {
		out = append(out, ArmedView{ID: a.id, Since: int64(a.since), Until: int64(a.until), Imp: a.imp})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Play schedules every step of the scenario relative to now: each
// impairment arms at its At instant and disarms Duration later
// (Duration 0 stays armed). A nonzero scenario seed reseeds the
// controller so the drill's randomness is self-contained.
func (c *Controller) Play(sc Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	c.scenario = sc.Name
	if sc.Seed != 0 {
		c.seed = sc.Seed
		c.rng = rand.New(rand.NewSource(sc.Seed))
	}
	c.mu.Unlock()
	start := c.clk.Now()
	for _, st := range sc.Steps {
		st := st
		c.schedule(clock.Duration(st.At), func() {
			var until clock.Time
			if st.Duration > 0 {
				until = start.Add(clock.Duration(st.At + st.Duration))
			}
			id, err := c.armUntil(st.Impairment, until)
			if err != nil {
				return // validated above; unreachable
			}
			if st.Duration > 0 {
				c.schedule(clock.Duration(st.Duration), func() { c.Disarm(id) })
			}
		})
	}
	return nil
}

// Scenario returns the name of the scenario last handed to Play.
func (c *Controller) Scenario() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scenario
}

// schedule runs fn after d (see clock.AfterFunc): a deterministic timer
// callback under clock.Sim, so delayed deliveries and scenario steps
// replay exactly.
func (c *Controller) schedule(d clock.Duration, fn func()) {
	if d <= 0 {
		fn()
		return
	}
	clock.AfterFunc(c.clk, d, func(clock.Time) { fn() })
}

// verdict is one datagram's injection outcome.
type verdict struct {
	drop       bool
	dropKind   Kind // loss or partition
	truncateTo int  // -1 = intact
	dup        bool
	dupDelay   clock.Duration
	delay      clock.Duration
}

// decide draws this datagram's fate from the armed impairments, in arm
// order, and appends one line to the injection log. It is the single
// randomness consumer, so identical traffic order reproduces identical
// decisions.
func (c *Controller) decide(dir Direction, peer string, size int) verdict {
	if dir == DirOut {
		c.sentSeen.Add(1)
	} else {
		c.recvSeen.Add(1)
	}
	v := verdict{truncateTo: -1}

	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.decided
	c.decided++
	var acts []string
	for _, a := range c.armedSet {
		if v.drop || !a.imp.matches(dir, peer) {
			continue
		}
		im := a.imp
		switch im.Kind {
		case KindPartition:
			v.drop, v.dropKind = true, KindPartition
			c.partDrops.Add(1)
			acts = append(acts, "drop:partition")
		case KindLoss:
			if a.ge.Drop(c.rng) {
				v.drop, v.dropKind = true, KindLoss
				c.lossDrops.Add(1)
				acts = append(acts, "drop:loss")
			}
		case KindTruncate:
			if c.rng.Float64() < im.Rate {
				cut := im.Bytes
				if cut <= 0 {
					cut = size / 2
				}
				if cut < size {
					v.truncateTo = cut
					c.truncated.Add(1)
					acts = append(acts, "trunc:"+strconv.Itoa(cut))
				}
			}
		case KindDuplicate:
			if c.rng.Float64() < im.Rate {
				v.dup = true
				v.dupDelay = clock.Duration(im.Delay)
				c.duplicated.Add(1)
				acts = append(acts, "dup")
			}
		case KindReorder:
			if c.rng.Float64() < im.Rate {
				v.delay += clock.Duration(im.Delay)
				c.reordered.Add(1)
				acts = append(acts, "reorder:"+clock.Duration(im.Delay).String())
			}
		case KindDelay:
			if im.Rate > 0 && c.rng.Float64() >= im.Rate {
				continue
			}
			d := clock.Duration(im.Delay)
			if im.Jitter > 0 {
				d += clock.Duration(c.rng.Float64() * float64(im.Jitter))
			}
			if d > 0 {
				v.delay += d
				c.delayed.Add(1)
				acts = append(acts, "delay:"+d.String())
			}
		case KindSkew:
			// Clock-only impairment: no per-datagram effect.
		}
	}
	if c.logN < DefaultLogCap {
		c.logN++
		action := "pass"
		if len(acts) > 0 {
			action = acts[0]
			for _, a := range acts[1:] {
				action += "+" + a
			}
		}
		fmt.Fprintf(&c.log, "%d %s %s %d %s\n", n, dir, peer, size, action)
	} else {
		c.logDropped.Add(1)
	}
	return v
}

// LogBytes returns a copy of the injection log: one line per inspected
// datagram, "<ordinal> <dir> <peer> <bytes> <actions>". Same seed, same
// schedule, same traffic order ⇒ byte-identical log.
func (c *Controller) LogBytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.log.Bytes()...)
}

// Counters returns the injection-counter snapshot.
func (c *Controller) Counters() Counters {
	return Counters{
		SentSeen:     c.sentSeen.Load(),
		RecvSeen:     c.recvSeen.Load(),
		LossDrops:    c.lossDrops.Load(),
		PartDrops:    c.partDrops.Load(),
		Delayed:      c.delayed.Load(),
		Reordered:    c.reordered.Load(),
		Duplicated:   c.duplicated.Load(),
		Truncated:    c.truncated.Load(),
		Overflow:     c.overflow.Load(),
		LogDropped:   c.logDropped.Load(),
		StepsArmed:   c.stepsArm.Load(),
		StepsCleared: c.stepsClear.Load(),
	}
}

// InstrumentMetrics registers the controller's injection counters in
// set, so a /metrics scrape can correlate impairment windows with QoS
// dips. Counter reads are the same atomics the injection path bumps;
// scrapes add nothing to it.
func (c *Controller) InstrumentMetrics(set *metrics.Set) {
	set.CounterFunc("sfd_chaos_sent_seen_total",
		"Outbound datagrams inspected by the chaos layer.", c.sentSeen.Load)
	set.CounterFunc("sfd_chaos_recv_seen_total",
		"Inbound datagrams inspected by the chaos layer.", c.recvSeen.Load)
	set.CounterFunc("sfd_chaos_loss_drops_total",
		"Datagrams dropped by the Gilbert-Elliott loss channel.", c.lossDrops.Load)
	set.CounterFunc("sfd_chaos_partition_drops_total",
		"Datagrams dropped by an armed partition.", c.partDrops.Load)
	set.CounterFunc("sfd_chaos_delayed_total",
		"Deliveries postponed by delay/jitter injection.", c.delayed.Load)
	set.CounterFunc("sfd_chaos_reordered_total",
		"Deliveries held back so later datagrams overtake them.", c.reordered.Load)
	set.CounterFunc("sfd_chaos_duplicated_total",
		"Extra datagram copies injected.", c.duplicated.Load)
	set.CounterFunc("sfd_chaos_truncated_total",
		"Payloads cut short in flight.", c.truncated.Load)
	set.CounterFunc("sfd_chaos_queue_overflow_total",
		"Impaired deliveries lost to a full chaos delivery queue.", c.overflow.Load)
	set.CounterFunc("sfd_chaos_steps_armed_total",
		"Impairments armed (scenario steps plus manual arms).", c.stepsArm.Load)
	set.CounterFunc("sfd_chaos_steps_cleared_total",
		"Impairments disarmed.", c.stepsClear.Load)
	set.GaugeFunc("sfd_chaos_active_impairments",
		"Impairments currently armed.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.armedSet))
		})
}
