// Multimonitor: the paper's Fig. 1 "multiple monitor multiple"
// deployment with the gossip dissemination layer on top, as a
// deterministic netsim run. Three monitors watch the same twelve
// heartbeat streams; monitors exchange suspicion digests and only
// declare a stream offline fleet-wide when a weighted quorum concurs.
//
// The run walks through the three situations quorum corroboration
// exists for:
//
//  1. A partition blinds ONE monitor: it locally declares everything
//     offline, but no global verdict fires — the other monitors still
//     hear the heartbeats, and the partitioned monitor's mistake streak
//     crushes its accuracy weight (the Impact-FD idea).
//  2. A process genuinely crashes: every monitor concurs, and the
//     corroborated GlobalOffline verdict fires on each monitor's bus.
//  3. The process restarts with a bumped incarnation (SWIM-style): its
//     first heartbeat refutes all suspicion of its previous life and
//     every monitor recants to GlobalTrust.
//
// Unlike the other examples it imports internal/netsim directly: the
// simulated node and its inbound record are due to be reshaped into a
// transport endpoint, and exporting them from the root package now would
// pin an API that reshaping removes.
package main

import (
	"fmt"
	"time"

	sfd "repro"
	"repro/internal/clock"
	"repro/internal/heartbeat"
	"repro/internal/netsim"
)

const (
	nSubjects    = 12
	beatInterval = 100 * time.Millisecond
)

// monitor is one monitoring host: a netsim node carrying both heartbeat
// and gossip datagrams, a registry, and a gossiper.
type monitor struct {
	name string
	node *netsim.Node
	reg  *sfd.Registry
	g    *sfd.Gossiper
}

// pump drains the node's inbox every 5 ms, routing by magic bytes: "HB"
// heartbeats feed the registry, "SG" digests feed the gossiper — the
// same shared-socket discrimination sfdmon uses on a real UDP port.
func (m *monitor) pump(sim *clock.Sim) {
	sim.AfterFunc(5*time.Millisecond, func(now clock.Time) {
		for _, in := range m.node.Drain() {
			if msg, err := heartbeat.Unmarshal(in.Payload); err == nil {
				if msg.Kind == heartbeat.KindHeartbeat {
					m.reg.Observe(sfd.HeartbeatArrival{
						From: in.From, Seq: msg.Seq, Send: msg.Time, Recv: in.At, Inc: msg.Inc,
					})
				}
				continue
			}
			m.g.HandleDatagram(in.Payload)
		}
		m.pump(sim)
	})
}

// logGlobalEvents prints the corroborated verdicts as they land on this
// monitor's failure-event bus, drained inside the simulation so the
// output order is deterministic.
func (m *monitor) logGlobalEvents(sim *clock.Sim) {
	sub := m.reg.Subscribe(1024)
	var tick func(clock.Time)
	tick = func(clock.Time) {
		for {
			select {
			case ev := <-sub.C():
				switch ev.Type {
				case sfd.EventGlobalSuspect, sfd.EventGlobalOffline, sfd.EventGlobalTrust:
					fmt.Printf("[%s t=%v] %s %s inc=%d (%s)\n",
						m.name, time.Duration(ev.At), ev.Peer, ev.Type, ev.Incarnation, ev.Detail())
				}
			default:
				sim.AfterFunc(10*time.Millisecond, tick)
				return
			}
		}
	}
	sim.AfterFunc(10*time.Millisecond, tick)
}

// subject is one monitored process: an AfterFunc loop heartbeating to
// every monitor until crashed; a restart bumps its incarnation and
// restarts its sequence numbers.
type subject struct {
	name     string
	node     *netsim.Node
	monitors []string
	alive    bool
	inc      uint64
	seq      uint64
}

func (s *subject) loop(sim *clock.Sim, now clock.Time) {
	if s.alive {
		s.seq++
		b := heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: s.seq, Time: now, Inc: s.inc}.Marshal()
		for _, m := range s.monitors {
			_ = s.node.Send(m, b)
		}
	}
	sim.AfterFunc(beatInterval, func(t clock.Time) { s.loop(sim, t) })
}

func main() {
	sim := sfd.NewSimClock(0)
	net := netsim.New(sim, sfd.LinkParams{
		DelayBase:  5 * time.Millisecond,
		JitterMean: time.Millisecond,
		JitterStd:  time.Millisecond,
	}, 2012)

	monNames := []string{"monA", "monB", "monC"}
	monitors := make([]*monitor, 0, len(monNames))
	for i, name := range monNames {
		m := &monitor{name: name, node: net.AddNode(name, 4096)}
		m.reg = sfd.NewRegistry(sim, func(string) sfd.Detector {
			return sfd.NewChen(16, beatInterval, 200*time.Millisecond)
		}, sfd.RegistryOptions{
			WheelTick:    10 * time.Millisecond,
			OfflineAfter: 300 * time.Millisecond,
			MaxSilence:   2 * time.Second,
			EvictAfter:   -1,
		})
		m.reg.Start()
		peers := make([]string, 0, 2)
		for _, p := range monNames {
			if p != name {
				peers = append(peers, p)
			}
		}
		m.g = sfd.NewGossiper(m.node, sim, m.reg, peers, sfd.GossipOptions{
			Interval: 150 * time.Millisecond,
			Quorum:   2,
			Seed:     int64(i + 1),
		})
		m.g.Start()
		m.pump(sim)
		m.logGlobalEvents(sim)
		monitors = append(monitors, m)
	}

	// Twelve monitored processes, each heartbeating to all three monitors.
	subjects := make([]*subject, nSubjects)
	for i := range subjects {
		s := &subject{
			name:     fmt.Sprintf("s%02d", i),
			node:     net.AddNode(fmt.Sprintf("s%02d", i), 16),
			monitors: monNames,
			alive:    true,
		}
		stagger := time.Duration(i) * time.Millisecond // spread first beats
		sim.AfterFunc(beatInterval+stagger, func(t clock.Time) { s.loop(sim, t) })
		subjects[i] = s
	}

	fmt.Println("multimonitor: 3 monitors × 12 streams over netsim, gossip quorum 2")
	sim.Advance(5 * time.Second)
	fmt.Printf("[t=%v] warm-up done; every stream trusted on every monitor\n", time.Duration(sim.Now()))

	// 1. Partition: monC stops hearing any subject.
	fmt.Printf("\n>>> [t=%v] partitioning all subjects away from monC\n", time.Duration(sim.Now()))
	for _, s := range subjects {
		net.Partition(s.name, "monC")
	}
	sim.Advance(5 * time.Second)
	monC := monitors[2]
	fmt.Printf("[t=%v] monC local offlines: %d of %d — yet zero global verdicts fired\n",
		time.Duration(sim.Now()), monC.reg.Counters().Offlines, nSubjects)
	fmt.Println("        (quorum 2 unmet: monA and monB still hear every heartbeat)")

	fmt.Printf("\n>>> [t=%v] healing the partition\n", time.Duration(sim.Now()))
	for _, s := range subjects {
		net.Heal(s.name, "monC")
	}
	sim.Advance(3 * time.Second)
	fmt.Printf("[t=%v] monC recovered all streams; %d mistaken suspicions cost it its reputation:\n",
		time.Duration(sim.Now()), nSubjects)
	for _, m := range monitors {
		fmt.Printf("        %s self-reported weight %.2f (mistake rate %.3f)\n",
			m.name, m.g.Weight(), m.g.MistakeRate())
	}

	// 2. A genuine crash.
	victim := subjects[3]
	fmt.Printf("\n>>> [t=%v] %s crashes for real\n", time.Duration(sim.Now()), victim.name)
	victim.alive = false
	sim.Advance(3 * time.Second)
	for _, m := range monitors {
		fmt.Printf("[%s] verdict for %s: %s\n", m.name, victim.name, m.g.VerdictOf(victim.name))
	}

	// 3. Restart with a bumped incarnation.
	fmt.Printf("\n>>> [t=%v] %s restarts with incarnation 1\n", time.Duration(sim.Now()), victim.name)
	victim.alive, victim.inc, victim.seq = true, 1, 0
	sim.Advance(3 * time.Second)
	for _, m := range monitors {
		inc, _ := m.reg.IncarnationOf(victim.name)
		fmt.Printf("[%s] verdict for %s: %s (incarnation %d)\n",
			m.name, victim.name, m.g.VerdictOf(victim.name), inc)
	}

	delivered, dropped := net.Stats()
	fmt.Printf("\nnetwork: %d datagrams delivered, %d dropped — rerun it: same seed, same story\n",
		delivered, dropped)
}
