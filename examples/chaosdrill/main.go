// Chaosdrill: a loopback fleet run through a scripted
// partition-and-heal drill by the chaos injection layer
// (internal/chaos). One monitor watches four heartbeat streams over the
// in-memory hub; a Scenario written in the same flag DSL that
// `sfdmon -chaos` accepts blinds the monitor to two of them for four
// seconds, then heals. The drill shows the failure-detection story the
// acceptance tests assert: the partitioned streams walk
// suspect → offline while the untouched streams never flicker, and the
// first post-heal heartbeat re-trusts every victim.
//
// Everything runs on the simulated clock with seeded injection
// randomness, so the output — including the chaos layer's own injection
// log — is identical on every run.
package main

import (
	"fmt"
	"strings"
	"time"

	sfd "repro"
)

const (
	nSubjects    = 4
	beatInterval = 100 * time.Millisecond
)

// The drill script, in the DSL sfdmon's -chaos flag takes: at t=3s,
// drop every inbound datagram from s0 and s1 for 4 seconds.
const drill = "name=partition-drill;seed=42;3s+4s:partition(dir=in,peers=s0|s1)"

func main() {
	sim := sfd.NewSimClock(0)
	hub := sfd.NewHub(0, 0, 1)

	// The monitor's endpoint, wrapped: datagrams pulled off the raw hub
	// endpoint pass through the controller's armed impairments before
	// the receiver sees them.
	ctl := sfd.NewChaosController(sim, 0)
	monRaw := hub.Endpoint("monitor")
	monEp := sfd.WrapChaos(monRaw, ctl)

	reg := sfd.NewRegistry(sim, sfd.SFDFactory(sfd.Targets{
		MaxTD: 500 * time.Millisecond, MaxMR: 0.5, MinQAP: 0.9,
	}), sfd.RegistryOptions{
		WheelTick:    10 * time.Millisecond,
		OfflineAfter: 500 * time.Millisecond,
		EvictAfter:   -1,
	})
	reg.Start()
	sub := reg.Subscribe(1024)

	// Pump loop: every 5 ms push raw arrivals through the chaos layer,
	// then feed whatever survives to the registry — the same two-stage
	// path sfdmon runs, driven synchronously under the sim clock.
	var pump func(sfd.Time)
	pump = func(now sfd.Time) {
		for {
			select {
			case in := <-monRaw.Recv():
				monEp.Process(in)
			default:
				goto drainImpaired
			}
		}
	drainImpaired:
		for {
			select {
			case in := <-monEp.Recv():
				if msg, err := sfd.DecodeHeartbeat(in.Payload); err == nil && msg.Kind == sfd.KindHeartbeat {
					reg.Observe(sfd.HeartbeatArrival{
						From: in.From, Seq: msg.Seq, Send: msg.Time, Recv: sim.Now(), Inc: msg.Inc,
					})
				}
			default:
				sim.AfterFunc(5*time.Millisecond, pump)
				return
			}
		}
	}
	sim.AfterFunc(5*time.Millisecond, pump)

	// Four subjects heartbeating to the monitor, starts staggered so
	// their streams interleave.
	for i := 0; i < nSubjects; i++ {
		name := fmt.Sprintf("s%d", i)
		ep := hub.Endpoint(name)
		seq := uint64(0)
		var beat func(sfd.Time)
		beat = func(now sfd.Time) {
			seq++
			b := sfd.HeartbeatMessage{Kind: sfd.KindHeartbeat, Seq: seq, Time: now, Inc: 1}.Marshal()
			_ = ep.Send("monitor", b)
			sim.AfterFunc(beatInterval, beat)
		}
		sim.AfterFunc(beatInterval+time.Duration(i)*time.Millisecond, beat)
	}

	// Arm the scenario. Play schedules each step on the sim clock; the
	// partition arms itself at 3s and clears at 7s with no further help.
	sc, err := sfd.ParseChaosDSL(drill)
	if err != nil {
		panic(err)
	}
	if err := ctl.Play(sc); err != nil {
		panic(err)
	}
	fmt.Printf("chaosdrill: scenario %q (seed %d): %s\n", sc.Name, ctl.Seed(), sc.Steps[0].Impairment)

	// drainEvents prints the failure-bus transitions accumulated since
	// the last call; inside the deterministic run the order is stable.
	drainEvents := func() {
		for {
			select {
			case ev := <-sub.C():
				switch ev.Type {
				case sfd.EventSuspect, sfd.EventOffline, sfd.EventTrust:
					fmt.Printf("  [t=%v] %s %s\n", time.Duration(ev.At), ev.Peer, ev.Type)
				}
			default:
				return
			}
		}
	}

	fmt.Println("\n>>> warm-up: all four streams trusted")
	sim.Advance(3 * time.Second)
	drainEvents()

	fmt.Println("\n>>> t=3s: inbound partition drops s0 and s1 (s2, s3 untouched)")
	// Stop one tick short of 7s: the heal and the first surviving
	// heartbeat coalesce at exactly t=7s and belong to the next section.
	sim.Advance(4*time.Second - time.Millisecond)
	drainEvents()
	c := ctl.Counters()
	fmt.Printf("  partition dropped %d datagrams; monitor saw %d\n", c.PartDrops, c.RecvSeen)

	fmt.Println("\n>>> t=7s: partition healed; first surviving heartbeat recants each suspicion")
	sim.Advance(3*time.Second + time.Millisecond)
	drainEvents()

	rc := reg.Counters()
	fmt.Printf("\nregistry: heartbeats=%d suspects=%d offline=%d trusts=%d (streams=%d)\n",
		rc.Heartbeats, rc.Suspects, rc.Offlines, rc.Trusts, rc.Streams)
	fmt.Printf("chaos:    armed=%d cleared=%d active now=%d\n",
		c.StepsArmed, ctl.Counters().StepsCleared, len(ctl.Active()))

	log := ctl.LogBytes()
	lines := strings.Split(strings.TrimRight(string(log), "\n"), "\n")
	fmt.Printf("\ninjection log: %d bytes, %d entries — first drops (seed-deterministic, byte-identical per run):\n",
		len(log), len(lines))
	shown := 0
	for _, l := range lines {
		if strings.Contains(l, "drop:partition") {
			fmt.Printf("  %s\n", l)
			if shown++; shown == 3 {
				break
			}
		}
	}
	reg.Stop()
	fmt.Println("\nrerun it: same seed, same story — byte for byte.")
}
