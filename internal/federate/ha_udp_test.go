package federate

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/heartbeat"
	"repro/internal/registry"
	"repro/internal/transport"
)

// The aggregator-failover drill over real loopback UDP and HTTP: the
// netsim drill's kill → promotion → failback story, run on the live
// transport with heartbeat senders, leaf receivers and /fleet polls.

const (
	udpBeat   = 50 * time.Millisecond
	udpDigest = 200 * time.Millisecond
)

// udpAgg is one aggregator process: a socket on a fixed address, and an
// httptest /fleet surface that answers 503 while the process is down.
type udpAgg struct {
	id, addr, peer string
	clk            clock.Clock
	udp            *transport.UDP
	agg            atomic.Pointer[Aggregator]
	srv            *httptest.Server
}

func (n *udpAgg) boot(t *testing.T, inc uint64) {
	t.Helper()
	udp, err := transport.ListenUDP(n.addr)
	if err != nil {
		t.Fatalf("%s: listen %s: %v", n.id, n.addr, err)
	}
	a := NewAggregator(udp, n.clk, AggregatorOptions{
		ID:             n.id,
		Region:         "global",
		Peers:          []string{n.peer},
		Incarnation:    inc,
		DigestInterval: clock.Duration(udpDigest),
	})
	a.Start()
	n.udp = udp
	n.agg.Store(a)
	go transport.Pump(udp, func(in transport.Inbound) { a.HandleDatagram(in.From, in.Payload) })
}

// kill crashes the process: the aggregator stops and its socket closes.
func (n *udpAgg) kill() {
	if a := n.agg.Swap(nil); a != nil {
		a.Stop()
		n.udp.Close()
	}
}

// fleetView is the slice of GET /fleet the drill reads.
type fleetView struct {
	Aggregator string `json:"aggregator"`
	Role       string `json:"role"`
	Leaves     []struct {
		State string `json:"state"`
	} `json:"leaves"`
	Cohorts []struct {
		Streams  uint32 `json:"streams"`
		Offlines uint64 `json:"offlines_total"`
	} `json:"cohorts"`
}

func (v *fleetView) totals() (streams, offlines uint64) {
	for _, c := range v.Cohorts {
		streams += uint64(c.Streams)
		offlines += c.Offlines
	}
	return streams, offlines
}

func getFleet(n *udpAgg) (*fleetView, bool) {
	res, err := http.Get(n.srv.URL + "/fleet")
	if err != nil {
		return nil, false
	}
	defer res.Body.Close()
	var v fleetView
	if res.StatusCode != http.StatusOK || json.NewDecoder(res.Body).Decode(&v) != nil {
		return nil, false
	}
	return &v, true
}

// startUDPLeaf boots a leaf monitor owning cohort id/# on its own socket,
// plus `streams` named heartbeat senders aimed at it.
func startUDPLeaf(t *testing.T, clk clock.Clock, id, region string, aggs []string, streams int) []*heartbeat.Sender {
	t.Helper()
	udp, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(clk, func(string) detector.Detector {
		return detector.NewChen(16, clock.Duration(udpBeat), 150*clock.Millisecond)
	}, registry.Options{
		WheelTick:    10 * clock.Millisecond,
		OfflineAfter: 300 * clock.Millisecond,
		MaxSilence:   clock.Second,
		EvictAfter:   -1, // offline streams keep their counts
	})
	reg.Start()
	leaf, err := NewLeaf(udp, clk, reg, "", LeafOptions{
		ID:       id,
		Region:   region,
		Cohorts:  []string{id + "/#"},
		Interval: clock.Duration(udpDigest),
		Aggs:     aggs,
	})
	if err != nil {
		t.Fatal(err)
	}
	recv := heartbeat.NewReceiver(udp, clk, reg.Observe)
	recv.SetForeign(func(in transport.Inbound) { leaf.HandleDatagramFrom(in.From, in.Payload) })
	recv.Start()
	leaf.Start()

	src, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	senders := make([]*heartbeat.Sender, streams)
	for i := range senders {
		s := heartbeat.NewSender(src, udp.Addr(), udpBeat, clk)
		s.SetName(fmt.Sprintf("%s/s%d", id, i))
		s.Start()
		senders[i] = s
	}
	t.Cleanup(func() {
		for _, s := range senders {
			s.Stop()
		}
		src.Close()
		leaf.Stop()
		udp.Close()
		recv.Wait()
		reg.Stop()
	})
	return senders
}

// TestUDPAggregatorFailover kills the active aggregator of an HA pair
// under live leaf traffic. The standby must serve /fleet as leader within
// four digest intervals; the leader's offline totals must never regress
// and must carry the injected stream kills; and the killed aggregator,
// restarted on its old port at incarnation 2, must take leadership back.
func TestUDPAggregatorFailover(t *testing.T) {
	clk := clock.NewReal()
	var addrs []string
	for i := 0; i < 2; i++ {
		// Reserve two loopback ports, then free them for the aggregators.
		u, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, u.Addr())
		u.Close()
	}
	a := &udpAgg{id: "agg-a", addr: addrs[0], peer: addrs[1], clk: clk}
	b := &udpAgg{id: "agg-b", addr: addrs[1], peer: addrs[0], clk: clk}
	for _, n := range []*udpAgg{a, b} {
		n.boot(t, 1)
		n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if agg := n.agg.Load(); agg != nil {
				agg.Handler().ServeHTTP(w, r)
				return
			}
			http.Error(w, "aggregator down", http.StatusServiceUnavailable)
		}))
		t.Cleanup(func() { n.srv.Close(); n.kill() })
	}

	const streams = 10
	victims := startUDPLeaf(t, clk, "r0/leaf-0", "r0", addrs, streams)
	startUDPLeaf(t, clk, "r1/leaf-0", "r1", addrs, streams)

	// poll waits for cond on the /fleet leader (nil if none serves as
	// leader), checking on every poll that the leader's offline total
	// never falls below the highest one served so far.
	var offlinesSeen uint64
	poll := func(what string, within time.Duration, cond func(leader *fleetView) bool) time.Duration {
		t.Helper()
		start := time.Now()
		for {
			var leader *fleetView
			for _, n := range []*udpAgg{a, b} {
				if v, ok := getFleet(n); ok && v.Role == "leader" {
					leader = v
				}
			}
			if leader != nil {
				_, off := leader.totals()
				if off < offlinesSeen {
					t.Fatalf("%s: %s serves offline total %d, below the %d already served",
						what, leader.Aggregator, off, offlinesSeen)
				}
				offlinesSeen = off
			}
			if cond(leader) {
				return time.Since(start)
			}
			if time.Since(start) > within {
				t.Fatalf("%s: not within %v", what, within)
			}
			time.Sleep(udpDigest / 5)
		}
	}

	// Warmup: agg-a (lowest id) leads a view with every stream and leaf.
	poll("warmup", 5*time.Second, func(v *fleetView) bool {
		if v == nil || v.Aggregator != "agg-a" || len(v.Leaves) != 2 {
			return false
		}
		n, _ := v.totals()
		return n == 2*streams && !b.agg.Load().Leader()
	})

	// Crash some streams: their offline transitions reach the leader.
	const kills = 4
	for _, s := range victims[:kills] {
		s.Crash()
	}
	poll("stream kills merged", 5*time.Second, func(v *fleetView) bool {
		if v == nil {
			return false
		}
		_, off := v.totals()
		return off >= kills
	})
	if _, ok := getFleet(b); !ok {
		t.Fatal("standby does not serve /fleet")
	}

	// Kill the active: the standby promotes, still carrying the kills.
	a.kill()
	promotion := poll("standby promotion", 4*udpDigest, func(v *fleetView) bool {
		return v != nil && v.Aggregator == "agg-b"
	})
	t.Logf("agg-b promoted %v after the kill (bound %v)", promotion, 4*udpDigest)

	// Restart agg-a on its old port as incarnation 2: it rejoins and,
	// as the lowest id, takes leadership back.
	a.boot(t, 2)
	failback := poll("failback", 5*time.Second, func(v *fleetView) bool {
		return v != nil && v.Aggregator == "agg-a" && !b.agg.Load().Leader()
	})
	t.Logf("agg-a led again %v after its restart", failback)
	if offlinesSeen < kills {
		t.Fatalf("final offline total %d, want the %d injected kills", offlinesSeen, kills)
	}
}
