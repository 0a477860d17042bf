package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The generator is the benchmark's own load source: one goroutine locked
// to one OS thread, one UDP socket, pre-encoded heartbeats patched in
// place. It is open loop — every beat has a due instant fixed by the plan
// and is stamped with it, so a stall shows up as lateness of the beats
// behind it rather than as a lower offered rate — and it allocates
// nothing while it runs.
//
// It runs in a child process of its own. Inside the monitor's process it
// would need one of the monitor's scheduler slots every time it woke,
// and when those are all busy (a checkpoint encoding, a collection
// marking) Go hands one over only at its 10 ms preemption quantum:
// measured in-process on two cores, the fleet workload's generator ran
// 6–14 ms late at p99, once 158 ms. A separate process waits for nothing
// but the kernel, and its CPU time is separate by construction: the
// monitor's cost per heartbeat is the parent's process CPU, and
// gen.cpu_us_per_hb is the child's.

// roleEnv selects the generator role in a re-executed binary.
const roleEnv = "SFDBENCH_ROLE"

// genSpec is what the parent tells the child: how to rebuild the plan,
// when its first beat is due, and where to send.
type genSpec struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  int       `json:"seconds"`
	Scale    float64   `json:"scale"`
	T0Mono   int64     `json:"t0_mono"`  // CLOCK_MONOTONIC instant of the first beat
	T0Clock  int64     `json:"t0_clock"` // the same instant on the run's clock, for the payload timestamps
	Dst      [2]string `json:"dst"`      // second entry empty unless the plan dual-sends
}

// genResult is what the child reports when it has sent its last beat.
type genResult struct {
	Sent       [2]uint64 `json:"sent"`       // whole run, per monitor
	TimedSent  [2]uint64 `json:"timed_sent"` // timed phase only
	Suppressed uint64    `json:"suppressed"` // beats a partition swallowed (injected loss)
	SendErrors uint64    `json:"send_errors"`
	FaultsDone int       `json:"faults_done"`
	TimedCPUNs int64     `json:"timed_cpu_ns"` // generator thread CPU over the timed phase
	LateP50Us  float64   `json:"late_p50_us"`  // send − due over the timed phase
	LateP99Us  float64   `json:"late_p99_us"`
	LateMaxUs  float64   `json:"late_max_us"`
	// LateBuckets counts beats more than 3 ms late per twelfth of the
	// timed phase: when a run is invalid, where it fell behind.
	LateBuckets [12]int `json:"late_buckets"`
}

// monoNow reads CLOCK_MONOTONIC, the one clock parent and child share.
// (Go's own monotonic readings are this clock too, but are only exposed
// relative to a per-process origin.)
func monoNow() int64 {
	var ts syscall.Timespec
	const clockMonotonic = 1
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockMonotonic, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// ------------------------------------------------------------ parent side

// genProc is the parent's handle on the generator process.
type genProc struct {
	cmd   *exec.Cmd
	out   *bufio.Reader
	sched string // "realtime" or "timeshared": how the kernel schedules the child
}

// startGenerator launches the child and waits until it has rebuilt the
// plan and encoded its packets; from then on it sleeps until T0Mono.
func startGenerator(spec genSpec) (*genProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), roleEnv+"=generator")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start generator: %w", err)
	}
	g := &genProc{cmd: cmd, out: bufio.NewReader(stdout)}
	if _, err := stdin.Write(append(in, '\n')); err == nil {
		err = stdin.Close()
	}
	if err != nil {
		g.kill()
		return nil, fmt.Errorf("generator spec: %w", err)
	}
	line, err := g.out.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "ready ") {
		g.kill()
		return nil, fmt.Errorf("generator did not get ready: %q %v", line, err)
	}
	g.sched = strings.TrimSpace(strings.TrimPrefix(line, "ready "))
	return g, nil
}

// wait blocks until the child has finished and returns its report.
func (g *genProc) wait() (*genResult, error) {
	line, rerr := g.out.ReadBytes('\n')
	io.Copy(io.Discard, g.out)
	if err := g.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("generator: %w", err)
	}
	if rerr != nil {
		return nil, fmt.Errorf("generator report: %w", rerr)
	}
	var res genResult
	if err := json.Unmarshal(line, &res); err != nil {
		return nil, fmt.Errorf("generator report: %w", err)
	}
	return &res, nil
}

// kill stops a child that is no longer wanted and reaps it.
func (g *genProc) kill() {
	if g.cmd.ProcessState == nil {
		g.cmd.Process.Kill()
		g.cmd.Wait()
	}
}

// ------------------------------------------------------------- child side

// generatorMain is the child's entry point.
func generatorMain() {
	// One OS thread from here on: the scheduling class asked for below
	// and the CPU clock the report reads both belong to a thread.
	runtime.LockOSThread()
	var spec genSpec
	if err := json.NewDecoder(os.Stdin).Decode(&spec); err != nil {
		fatal(fmt.Errorf("generator spec: %w", err))
	}
	p, err := buildPlan(spec.Workload, spec.Seed, spec.Seconds, spec.Scale)
	if err != nil {
		fatal(err)
	}
	g, err := newGenerator(p, spec)
	if err != nil {
		fatal(err)
	}
	fmt.Println("ready", realtime())
	g.run()
	g.conn.Close()
	if err := json.NewEncoder(os.Stdout).Encode(g.result()); err != nil {
		fatal(err)
	}
}

// realtime asks for the lowest real-time priority for the generator's
// thread, so that it gets a core the moment it wakes however busy the
// monitor keeps both: a remote sender would not queue behind the
// monitor's threads either. It sleeps between beats and needs about a
// tenth of a core, so nothing starves. Best effort — it needs
// CAP_SYS_NICE; without it the generator takes its turn like any process
// (measured on fleet: p99 lateness 5–9 ms instead of 0.5) and a run is
// more likely to be declared invalid. Reports which it got.
func realtime() string {
	const schedFIFO = 1
	param := struct{ priority int32 }{1}
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedFIFO, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return "timeshared"
	}
	return "realtime"
}

type genStream struct {
	off   uint32 // packet position in arena
	ln    uint16
	dual  bool
	state uint8
	group int32
	seq   uint64
	inc   uint64
}

const (
	stAlive uint8 = iota
	stDead
)

type genClass struct {
	interval int64
	lo, n    int
	idx      int   // next stream within the class
	round    int64 // completed passes over the class
}

type generator struct {
	conn *net.UDPConn
	dsts [2]netip.AddrPort

	arena   []byte
	streams []genStream
	phases  []int64
	classes []genClass
	muted   []bool
	ops     []op
	nextOp  int

	t0Mono   int64
	t0Clock  int64
	warm     int64
	timedEnd int64

	res      genResult
	sentAtT  [2]uint64 // sent when the timed phase began
	cpuAtT   time.Duration
	lateUs   []uint32 // per beat of the timed phase: send − due
	lateDue  []uint32 // the same beats' due instants, ms into the timed phase
	baseGo   time.Time
	baseMono int64
}

// sleepQuantum is the shortest sleep the generator takes. Beats are due
// tens of microseconds apart; waking for each would spend the thread on
// wake-ups, so it sleeps at least this long and then sends what is due.
const sleepQuantum = 400 * time.Microsecond

func patchHeartbeat(pkt []byte, seq uint64, sendNs int64, inc uint64) {
	binary.BigEndian.PutUint64(pkt[hbSeqOff:], seq)
	binary.BigEndian.PutUint64(pkt[hbTimeOff:], uint64(sendNs))
	binary.BigEndian.PutUint64(pkt[hbIncOff:], inc)
}

// newGenerator encodes every stream's heartbeat once.
func newGenerator(p *plan, spec genSpec) (*generator, error) {
	if err := checkPatch(); err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("generator socket: %w", err)
	}
	g := &generator{conn: conn, ops: p.ops, warm: p.warm, timedEnd: p.timedEnd,
		t0Mono: spec.T0Mono, t0Clock: spec.T0Clock, muted: make([]bool, p.groups)}
	for i, d := range spec.Dst {
		if d == "" {
			continue
		}
		ap, err := netip.ParseAddrPort(d)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("generator target %q: %w", d, err)
		}
		g.dsts[i] = ap
	}
	var beatsPerSec float64
	for _, c := range p.classes {
		g.classes = append(g.classes, genClass{interval: int64(c.interval), lo: c.lo, n: c.hi - c.lo})
		beatsPerSec += float64(c.hi-c.lo) / c.interval.Seconds()
	}
	g.streams = make([]genStream, len(p.streams))
	g.phases = make([]int64, len(p.streams))
	for i := range p.streams {
		sp := &p.streams[i]
		off := len(g.arena)
		g.arena = encodeHeartbeat(g.arena, sp.name, 0, 0, firstIncarnation)
		// Live sequence numbers continue where the pre-warm left off.
		g.streams[i] = genStream{off: uint32(off), ln: uint16(len(g.arena) - off), dual: sp.dual,
			group: sp.group, seq: uint64(sp.prewarm), inc: firstIncarnation}
		g.phases[i] = sp.phase
	}
	n := int(beatsPerSec*float64(p.seconds)*1.02) + 1024
	g.lateUs, g.lateDue = make([]uint32, 0, n), make([]uint32, 0, n)
	return g, nil
}

// now is CLOCK_MONOTONIC read through Go's cheap monotonic clock.
func (g *generator) now() int64 { return g.baseMono + int64(time.Since(g.baseGo)) }

func (g *generator) apply(o op) {
	switch o.kind {
	case opKill:
		g.streams[o.target].state = stDead
		g.res.FaultsDone++
	case opRestart:
		s := &g.streams[o.target]
		s.state, s.seq = stAlive, 0
		s.inc++
	case opMute:
		g.muted[o.target] = true
	case opUnmute:
		g.muted[o.target] = false
	}
}

func (g *generator) run() {
	g.baseGo, g.baseMono = time.Now(), monoNow()

	begun := false
	for {
		// The class whose next beat is due first.
		ci, due := -1, int64(0)
		for i := range g.classes {
			c := &g.classes[i]
			d := c.round*c.interval + g.phases[c.lo+c.idx]
			if ci < 0 || d < due {
				ci, due = i, d
			}
		}
		if due >= g.timedEnd {
			break
		}
		for g.nextOp < len(g.ops) && g.ops[g.nextOp].at <= due {
			g.apply(g.ops[g.nextOp])
			g.nextOp++
		}
		if !begun && due >= g.warm {
			begun = true
			g.sentAtT, g.cpuAtT = g.res.Sent, threadCPU()
		}
		abs := g.t0Mono + due
		now := g.now()
		if now < abs {
			d := time.Duration(abs - now)
			if d < sleepQuantum {
				d = sleepQuantum
			}
			// nanosleep, not time.Sleep: the runtime's timers ride on
			// epoll_wait, whose timeout counts in whole milliseconds.
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
			now = g.now()
		}

		c := &g.classes[ci]
		si := c.lo + c.idx
		if c.idx++; c.idx == c.n {
			c.idx = 0
			c.round++
		}
		s := &g.streams[si]
		if s.state != stAlive {
			continue
		}
		s.seq++
		if s.group >= 0 && g.muted[s.group] {
			g.res.Suppressed++ // the sender beat; the partition ate it
			continue
		}
		pkt := g.arena[s.off : s.off+uint32(s.ln)]
		patchHeartbeat(pkt, s.seq, g.t0Clock+due, s.inc)
		g.send(pkt, 0)
		if s.dual {
			g.send(pkt, 1)
		}
		if begun {
			late := (now - abs) / 1000
			if late < 0 {
				late = 0
			}
			g.lateUs = append(g.lateUs, uint32(late))
			g.lateDue = append(g.lateDue, uint32((due-g.warm)/1e6))
		}
	}
	g.res.TimedCPUNs = int64(threadCPU() - g.cpuAtT)
	for i := range g.res.Sent {
		g.res.TimedSent[i] = g.res.Sent[i] - g.sentAtT[i]
	}
}

func (g *generator) send(pkt []byte, d int) {
	if _, err := g.conn.WriteToUDPAddrPort(pkt, g.dsts[d]); err != nil {
		g.res.SendErrors++
		return
	}
	g.res.Sent[d]++
}

// result summarises lateness; called after run.
func (g *generator) result() *genResult {
	late := make([]float64, len(g.lateUs))
	span := float64(g.timedEnd-g.warm) / 1e6
	for i, u := range g.lateUs {
		late[i] = float64(u)
		if u > 3000 {
			b := int(float64(g.lateDue[i]) / span * float64(len(g.res.LateBuckets)))
			g.res.LateBuckets[min(b, len(g.res.LateBuckets)-1)]++
		}
	}
	s := sortedCopy(late)
	if len(s) > 0 {
		g.res.LateP50Us, g.res.LateP99Us, g.res.LateMaxUs = percentile(s, 50), percentile(s, 99), s[len(s)-1]
	}
	return &g.res
}
