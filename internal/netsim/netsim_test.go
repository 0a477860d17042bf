package netsim

import (
	"errors"
	"testing"

	"repro/internal/clock"
)

const msN = clock.Millisecond

func twoNodeNet(seed int64, p LinkParams) (*Network, *Node, *Node, *clock.Sim) {
	clk := clock.NewSim(0)
	n := New(clk, p, seed)
	a := n.AddNode("a", 0)
	b := n.AddNode("b", 0)
	return n, a, b, clk
}

func TestDeliveryWithDelay(t *testing.T) {
	p := LinkParams{DelayBase: 50 * msN}
	_, a, b, clk := twoNodeNet(1, p)
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.TryRecv(); ok {
		t.Fatal("delivered before delay elapsed")
	}
	clk.Advance(49 * msN)
	if _, ok := b.TryRecv(); ok {
		t.Fatal("delivered early")
	}
	clk.Advance(msN)
	in, ok := b.TryRecv()
	if !ok {
		t.Fatal("not delivered at delay")
	}
	if string(in.Payload) != "hello" || in.From != "a" {
		t.Fatalf("wrong datagram: %+v", in)
	}
	if in.At != clock.Time(50*msN) {
		t.Fatalf("delivery time = %v, want 50ms", in.At)
	}
}

func TestUnknownNode(t *testing.T) {
	_, a, _, _ := twoNodeNet(1, DefaultLink())
	if err := a.Send("nobody", nil); err == nil {
		t.Fatal("send to unknown node succeeded")
	}
}

// TestPayloadCeiling: a payload above UDP's ceiling fails the send and
// counts a drop, as a socket's EMSGSIZE would; one at the ceiling passes.
func TestPayloadCeiling(t *testing.T) {
	n, a, b, clk := twoNodeNet(1, LinkParams{DelayBase: msN})
	if err := a.Send("b", make([]byte, MaxPayload)); err != nil {
		t.Fatalf("send at the ceiling: %v", err)
	}
	if err := a.Send("b", make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("send above the ceiling = %v, want ErrTooLarge", err)
	}
	clk.Advance(msN)
	if got := b.Drain(); len(got) != 1 || len(got[0].Payload) != MaxPayload {
		t.Fatalf("delivered %d datagrams, want only the one at the ceiling", len(got))
	}
	if delivered, dropped := n.Stats(); delivered != 1 || dropped != 1 {
		t.Fatalf("stats = %d delivered, %d dropped; want 1 and 1", delivered, dropped)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	clk := clock.NewSim(0)
	n := New(clk, DefaultLink(), 1)
	n.AddNode("x", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	n.AddNode("x", 0)
}

func TestPayloadIsolation(t *testing.T) {
	// The sender's buffer must be copied — mutating it after Send cannot
	// alter the delivered datagram (no message alteration, §II-B).
	p := LinkParams{DelayBase: 10 * msN}
	_, a, b, clk := twoNodeNet(1, p)
	buf := []byte("abc")
	a.Send("b", buf)
	buf[0] = 'X'
	clk.Advance(10 * msN)
	in, _ := b.TryRecv()
	if string(in.Payload) != "abc" {
		t.Fatalf("payload aliased: %q", in.Payload)
	}
}

func TestFIFOPerLink(t *testing.T) {
	// Heavy jitter would reorder; the link must enforce FIFO.
	p := LinkParams{DelayBase: 5 * msN, JitterMean: 50 * msN, JitterStd: 80 * msN}
	_, a, b, clk := twoNodeNet(42, p)
	for i := byte(0); i < 50; i++ {
		a.Send("b", []byte{i})
		clk.Advance(msN)
	}
	clk.Advance(clock.Second)
	got := b.Drain()
	if len(got) != 50 {
		t.Fatalf("delivered %d, want 50", len(got))
	}
	for i, in := range got {
		if in.Payload[0] != byte(i) {
			t.Fatalf("reordered at %d: got %d", i, in.Payload[0])
		}
		if i > 0 && got[i].At <= got[i-1].At {
			t.Fatalf("non-monotone delivery times at %d", i)
		}
	}
}

func TestLossRateApproximation(t *testing.T) {
	p := LinkParams{DelayBase: msN, LossRate: 0.2, MeanBurst: 1}
	clk := clock.NewSim(0)
	n := New(clk, p, 7)
	a := n.AddNode("a", 0)
	const total = 20000
	b := n.AddNode("b", total) // inbox large enough to hold everything
	for i := 0; i < total; i++ {
		a.Send("b", []byte{1})
		clk.Advance(msN)
	}
	clk.Advance(clock.Second)
	got := len(b.Drain())
	loss := 1 - float64(got)/float64(total)
	if loss < 0.17 || loss > 0.23 {
		t.Fatalf("observed loss %.3f, want ≈0.20", loss)
	}
	delivered, dropped := n.Stats()
	if delivered != uint64(got) || dropped != uint64(total-got) {
		t.Fatalf("stats %d/%d vs observed %d/%d", delivered, dropped, got, total-got)
	}
}

func TestBurstLossCorrelation(t *testing.T) {
	// MeanBurst=10 must produce long consecutive loss runs.
	p := LinkParams{DelayBase: msN, LossRate: 0.1, MeanBurst: 10}
	_, a, b, clk := twoNodeNet(9, p)
	const total = 50000
	receivedSeq := make(map[int]bool)
	for i := 0; i < total; i++ {
		a.Send("b", []byte{byte(i), byte(i >> 8), byte(i >> 16)})
		clk.Advance(msN)
		for _, in := range b.Drain() {
			seq := int(in.Payload[0]) | int(in.Payload[1])<<8 | int(in.Payload[2])<<16
			receivedSeq[seq] = true
		}
	}
	clk.Advance(clock.Second)
	for _, in := range b.Drain() {
		seq := int(in.Payload[0]) | int(in.Payload[1])<<8 | int(in.Payload[2])<<16
		receivedSeq[seq] = true
	}
	// Count maximal loss runs.
	runs, runLen, maxRun, losses := 0, 0, 0, 0
	for i := 0; i < total; i++ {
		if !receivedSeq[i] {
			losses++
			runLen++
			if runLen > maxRun {
				maxRun = runLen
			}
		} else if runLen > 0 {
			runs++
			runLen = 0
		}
	}
	if runLen > 0 {
		runs++
	}
	if losses == 0 || runs == 0 {
		t.Fatal("no losses observed")
	}
	meanRun := float64(losses) / float64(runs)
	if meanRun < 4 {
		t.Fatalf("mean loss run %.1f, want ≥4 for MeanBurst=10", meanRun)
	}
	if maxRun < 10 {
		t.Fatalf("max loss run %d, want ≥10", maxRun)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	p := LinkParams{DelayBase: msN}
	n, a, b, clk := twoNodeNet(3, p)
	n.PartitionBoth("a", "b")
	a.Send("b", []byte{1})
	b.Send("a", []byte{2})
	clk.Advance(clock.Second)
	if _, ok := b.TryRecv(); ok {
		t.Fatal("delivered through partition a→b")
	}
	if _, ok := a.TryRecv(); ok {
		t.Fatal("delivered through partition b→a")
	}
	n.HealBoth("a", "b")
	a.Send("b", []byte{3})
	clk.Advance(clock.Second)
	in, ok := b.TryRecv()
	if !ok || in.Payload[0] != 3 {
		t.Fatal("not delivered after heal")
	}
}

func TestAsymmetricLinks(t *testing.T) {
	clk := clock.NewSim(0)
	n := New(clk, DefaultLink(), 5)
	a := n.AddNode("a", 0)
	b := n.AddNode("b", 0)
	n.SetLink("a", "b", LinkParams{DelayBase: 10 * msN})
	n.SetLink("b", "a", LinkParams{DelayBase: 200 * msN})
	a.Send("b", []byte{1})
	b.Send("a", []byte{2})
	clk.Advance(10 * msN)
	if _, ok := b.TryRecv(); !ok {
		t.Fatal("fast direction not delivered")
	}
	if _, ok := a.TryRecv(); ok {
		t.Fatal("slow direction delivered early")
	}
	clk.Advance(190 * msN)
	if _, ok := a.TryRecv(); !ok {
		t.Fatal("slow direction never delivered")
	}
}

func TestInboxOverflowDrops(t *testing.T) {
	clk := clock.NewSim(0)
	n := New(clk, LinkParams{DelayBase: msN}, 5)
	a := n.AddNode("a", 0)
	n.AddNode("b", 0) // default capacity
	clk2 := clk       // silence unused warnings in older linters
	_ = clk2
	// Use a tiny inbox on c.
	c := n.AddNode("c", 2)
	for i := 0; i < 10; i++ {
		a.Send("c", []byte{byte(i)})
	}
	clk.Advance(clock.Second)
	got := c.Drain()
	if len(got) != 2 {
		t.Fatalf("tiny inbox delivered %d, want 2", len(got))
	}
	_, dropped := n.Stats()
	if dropped != 8 {
		t.Fatalf("dropped = %d, want 8", dropped)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []clock.Time {
		p := LinkParams{DelayBase: 5 * msN, JitterMean: 10 * msN, JitterStd: 15 * msN, LossRate: 0.1, MeanBurst: 3}
		_, a, b, clk := twoNodeNet(99, p)
		for i := 0; i < 500; i++ {
			a.Send("b", []byte{byte(i)})
			clk.Advance(10 * msN)
		}
		clk.Advance(clock.Second)
		var times []clock.Time
		for _, in := range b.Drain() {
			times = append(times, in.At)
		}
		return times
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) {
		t.Fatalf("non-deterministic delivery count: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("non-deterministic delivery time at %d", i)
		}
	}
}

func TestDelayMomentsMatchModel(t *testing.T) {
	p := LinkParams{DelayBase: 50 * msN, JitterMean: 10 * msN, JitterStd: 5 * msN}
	clk := clock.NewSim(0)
	n := New(clk, p, 77)
	a := n.AddNode("a", 0)
	const total = 20000
	b := n.AddNode("b", total)
	var sendTimes []clock.Time
	for i := 0; i < total; i++ {
		a.Send("b", []byte{1})
		sendTimes = append(sendTimes, clk.Now())
		clk.Advance(100 * msN)
	}
	clk.Advance(clock.Second)
	got := b.Drain()
	if len(got) != total {
		t.Fatalf("delivered %d/%d", len(got), total)
	}
	var sum float64
	for i, in := range got {
		sum += float64(in.At.Sub(sendTimes[i]))
	}
	meanMS := sum / float64(total) / float64(msN)
	if meanMS < 58 || meanMS > 62 {
		t.Fatalf("mean delay = %.2fms, want ≈60 (base 50 + jitter 10)", meanMS)
	}
}

func TestPartitionIsDirectional(t *testing.T) {
	p := LinkParams{DelayBase: msN}
	n, a, b, clk := twoNodeNet(88, p)
	n.Partition("a", "b") // only a→b cut
	a.Send("b", []byte{1})
	b.Send("a", []byte{2})
	clk.Advance(clock.Second)
	if _, ok := b.TryRecv(); ok {
		t.Fatal("a→b delivered through partition")
	}
	if in, ok := a.TryRecv(); !ok || in.Payload[0] != 2 {
		t.Fatal("b→a should be unaffected")
	}
}
