// Package netsim is a deterministic discrete-event network simulator: the
// substitute substrate for the paper's PlanetLab/Internet UDP paths (see
// DESIGN.md §2). Nodes exchange datagrams over directional links whose
// delay follows base + Gamma jitter + exponential heavy tail and whose
// loss follows a Gilbert–Elliott burst model — the same processes the
// synthetic trace generator uses, so live simulation and trace replay
// agree statistically.
//
// The simulator runs on a clock.Sim: deliveries are scheduled as timer
// callbacks, so an entire multi-node, multi-hour experiment executes in
// milliseconds of wall time and is bit-for-bit reproducible from its
// seed. Channel semantics match the paper's model (§II-B): messages may
// be lost, but are never created, altered, or duplicated; FIFO per link.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/clock"
	"repro/internal/stats"
)

// LinkParams describes one directional link.
type LinkParams struct {
	DelayBase  clock.Duration // propagation floor
	JitterMean clock.Duration // Gamma jitter mean
	JitterStd  clock.Duration // Gamma jitter std
	TailProb   float64        // probability of an exponential excursion
	TailScale  clock.Duration // mean of the excursion
	LossRate   float64        // long-run loss fraction
	MeanBurst  float64        // mean loss-burst length (events)
}

// DefaultLink returns a mild-WAN link: 40 ms base, small jitter, no loss.
func DefaultLink() LinkParams {
	return LinkParams{
		DelayBase:  40 * clock.Millisecond,
		JitterMean: 2 * clock.Millisecond,
		JitterStd:  2 * clock.Millisecond,
	}
}

// Inbound is a delivered datagram.
type Inbound struct {
	From    string
	Payload []byte
	At      clock.Time // delivery instant on the receiver's clock
}

// Network is the simulated fabric. All methods are safe for concurrent
// use, though deterministic runs should drive it from one goroutine.
type Network struct {
	clk *clock.Sim
	rng *rand.Rand

	mu          sync.Mutex
	nodes       map[string]*Node
	links       map[linkKey]*link
	defaultLink LinkParams
	partitioned map[linkKey]bool
	delivered   uint64
	dropped     uint64
}

type linkKey struct{ from, to string }

type link struct {
	params      LinkParams
	ge          *stats.GilbertElliott
	lastDeliver clock.Time
}

// ErrUnknownNode reports a send to or from an unregistered address.
var ErrUnknownNode = errors.New("netsim: unknown node")

// MaxPayload is UDP's payload ceiling over IPv4 (65 535 less the IP and
// UDP headers). A real socket fails a larger send with EMSGSIZE; so does
// the simulator, or oversize-datagram bugs would reproduce only on
// sockets. A property of the protocol, not of a link.
const MaxPayload = 65507

// ErrTooLarge reports a send above MaxPayload.
var ErrTooLarge = errors.New("netsim: payload exceeds the UDP ceiling")

// New creates an empty network on the given simulated clock, with the
// given default link parameters for node pairs that have no explicit
// link, and a deterministic seed.
func New(clk *clock.Sim, def LinkParams, seed int64) *Network {
	return &Network{
		clk:         clk,
		rng:         rand.New(rand.NewSource(seed)),
		nodes:       make(map[string]*Node),
		links:       make(map[linkKey]*link),
		defaultLink: def,
		partitioned: make(map[linkKey]bool),
	}
}

// Clock returns the simulated clock driving the network.
func (n *Network) Clock() *clock.Sim { return n.clk }

// AddNode registers a node with the given address and inbox capacity
// (datagrams overflowing the inbox are dropped, like a full UDP socket
// buffer). It panics on duplicate addresses — a configuration bug.
func (n *Network) AddNode(addr string, inboxCap int) *Node {
	if inboxCap <= 0 {
		inboxCap = 1024
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", addr))
	}
	node := &Node{addr: addr, net: n, inbox: make(chan Inbound, inboxCap)}
	n.nodes[addr] = node
	return node
}

// SetLink installs directional link parameters from → to.
func (n *Network) SetLink(from, to string, p LinkParams) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{from, to}] = &link{params: p, ge: stats.NewGilbertElliott(p.LossRate, p.MeanBurst)}
}

// Partition cuts the directional path from → to (every datagram dropped)
// until Heal is called. Partitioning both directions models the paper's
// long outage bursts.
func (n *Network) Partition(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[linkKey{from, to}] = true
}

// PartitionBoth cuts both directions between a and b.
func (n *Network) PartitionBoth(a, b string) {
	n.Partition(a, b)
	n.Partition(b, a)
}

// Heal restores the directional path from → to.
func (n *Network) Heal(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, linkKey{from, to})
}

// HealBoth restores both directions.
func (n *Network) HealBoth(a, b string) {
	n.Heal(a, b)
	n.Heal(b, a)
}

// Stats returns delivered and dropped datagram counts.
func (n *Network) Stats() (delivered, dropped uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delivered, n.dropped
}

// send routes one datagram; called by Node.Send.
func (n *Network) send(from, to string, payload []byte) error {
	n.mu.Lock()
	dst, ok := n.nodes[to]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	if len(payload) > MaxPayload {
		n.dropped++
		n.mu.Unlock()
		return fmt.Errorf("%w: %d bytes to %q", ErrTooLarge, len(payload), to)
	}
	key := linkKey{from, to}
	if n.partitioned[key] {
		n.dropped++
		n.mu.Unlock()
		return nil // silently dropped, like real UDP into a black hole
	}
	lk := n.links[key]
	if lk == nil {
		lk = &link{params: n.defaultLink, ge: stats.NewGilbertElliott(n.defaultLink.LossRate, n.defaultLink.MeanBurst)}
		n.links[key] = lk
	}
	if lk.ge.Drop(n.rng) {
		n.dropped++
		n.mu.Unlock()
		return nil
	}

	p := lk.params
	d := float64(p.DelayBase)
	if p.JitterMean > 0 {
		d += stats.SampleGamma(n.rng, float64(p.JitterMean), float64(p.JitterStd))
	}
	if p.TailProb > 0 && n.rng.Float64() < p.TailProb {
		d += n.rng.ExpFloat64() * float64(p.TailScale)
	}
	deliverAt := n.clk.Now().Add(clock.Duration(d))
	// FIFO per link, matching the paper's channel model.
	if deliverAt <= lk.lastDeliver {
		deliverAt = lk.lastDeliver + 1
	}
	lk.lastDeliver = deliverAt
	n.delivered++
	n.mu.Unlock()

	cp := make([]byte, len(payload))
	copy(cp, payload)
	n.clk.AfterFunc(deliverAt.Sub(n.clk.Now()), func(at clock.Time) {
		select {
		case dst.inbox <- Inbound{From: from, Payload: cp, At: at}:
		default:
			// Inbox overflow: drop, as a saturated socket buffer would.
			n.mu.Lock()
			n.dropped++
			n.delivered--
			n.mu.Unlock()
		}
	})
	return nil
}

// Node is a simulated host endpoint.
type Node struct {
	addr  string
	net   *Network
	inbox chan Inbound
}

// Addr returns the node's address.
func (nd *Node) Addr() string { return nd.addr }

// Send transmits a datagram to the named node. A nil error does not mean
// delivery — the link may drop it (unreliable channel).
func (nd *Node) Send(to string, payload []byte) error {
	return nd.net.send(nd.addr, to, payload)
}

// Recv returns the node's delivery channel. Drain it with TryRecv or a
// select; deliveries occur inside clock.Sim.Advance.
func (nd *Node) Recv() <-chan Inbound { return nd.inbox }

// TryRecv performs a non-blocking receive.
func (nd *Node) TryRecv() (Inbound, bool) {
	select {
	case in := <-nd.inbox:
		return in, true
	default:
		return Inbound{}, false
	}
}

// Drain empties the inbox, returning everything queued.
func (nd *Node) Drain() []Inbound {
	var out []Inbound
	for {
		in, ok := nd.TryRecv()
		if !ok {
			return out
		}
		out = append(out, in)
	}
}
