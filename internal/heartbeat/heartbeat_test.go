package heartbeat

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

func TestMessageRoundTrip(t *testing.T) {
	cases := []Message{
		{Kind: KindHeartbeat, Seq: 0, Time: 0},
		{Kind: KindHeartbeat, Seq: 123456789, Time: clock.Time(987654321)},
		{Kind: KindPing, Seq: 1, Time: clock.Time(clock.Second)},
		{Kind: KindPong, Seq: 1<<64 - 1, Time: clock.Time(1<<62 - 1)},
	}
	for _, m := range cases {
		got, err := Unmarshal(m.Marshal())
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip: %+v → %+v", m, got)
		}
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(kindSel uint8, seq uint64, tm int64) bool {
		kinds := []Kind{KindHeartbeat, KindPing, KindPong}
		m := Message{Kind: kinds[int(kindSel)%3], Seq: seq, Time: clock.Time(tm)}
		got, err := Unmarshal(m.Marshal())
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		make([]byte, 19),
		make([]byte, 21),
		func() []byte { b := (Message{Kind: KindHeartbeat}).Marshal(); b[0] = 'X'; return b }(),
		func() []byte { b := (Message{Kind: KindHeartbeat}).Marshal(); b[2] = 99; return b }(),
		func() []byte { b := (Message{Kind: KindHeartbeat}).Marshal(); b[3] = 0; return b }(),
	}
	for i, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// collectArrivals wires a sender to a receiver over a hub and returns the
// arrivals gathered within the duration.
func collectArrivals(t *testing.T, lossRate float64, run time.Duration, interval time.Duration) []Arrival {
	t.Helper()
	hub := transport.NewHub(lossRate, 0, 1)
	sEP := hub.Endpoint("p")
	rEP := hub.Endpoint("q")
	defer sEP.Close()

	var mu sync.Mutex
	var got []Arrival
	recv := NewReceiver(rEP, nil, func(a Arrival) {
		mu.Lock()
		got = append(got, a)
		mu.Unlock()
	})
	recv.Start()

	snd := NewSender(sEP, "q", interval, nil)
	snd.Start()
	time.Sleep(run)
	snd.Stop()
	rEP.Close()
	recv.Wait()

	mu.Lock()
	defer mu.Unlock()
	return append([]Arrival(nil), got...)
}

func TestSenderReceiverEndToEnd(t *testing.T) {
	got := collectArrivals(t, 0, 120*time.Millisecond, 10*time.Millisecond)
	if len(got) < 5 {
		t.Fatalf("received only %d heartbeats", len(got))
	}
	for i, a := range got {
		if a.From != "p" {
			t.Fatalf("arrival %d from %q", i, a.From)
		}
		if uint64(i) != a.Seq {
			t.Fatalf("seq gap without loss: %d at %d", a.Seq, i)
		}
		if a.Recv < a.Send-clock.Time(time.Second) {
			t.Fatalf("implausible timestamps: %+v", a)
		}
	}
}

func TestSenderCrashStopsHeartbeats(t *testing.T) {
	hub := transport.NewHub(0, 0, 1)
	sEP := hub.Endpoint("p")
	rEP := hub.Endpoint("q")
	defer rEP.Close()
	defer sEP.Close()

	var mu sync.Mutex
	count := 0
	recv := NewReceiver(rEP, nil, func(Arrival) { mu.Lock(); count++; mu.Unlock() })
	recv.Start()

	snd := NewSender(sEP, "q", 5*time.Millisecond, nil)
	snd.Start()
	time.Sleep(30 * time.Millisecond)
	snd.Crash()
	if !snd.Crashed() {
		t.Fatal("Crashed() false after Crash")
	}
	mu.Lock()
	after := count
	mu.Unlock()
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	final := count
	mu.Unlock()
	if final > after+1 {
		t.Fatalf("heartbeats kept flowing after crash: %d → %d", after, final)
	}
}

func TestReceiverIgnoresForeignDatagrams(t *testing.T) {
	hub := transport.NewHub(0, 0, 1)
	sEP := hub.Endpoint("p")
	rEP := hub.Endpoint("q")
	defer sEP.Close()
	defer rEP.Close()
	called := false
	recv := NewReceiver(rEP, nil, func(Arrival) { called = true })
	recv.Start()
	sEP.Send("q", []byte("junk that is not a heartbeat"))
	time.Sleep(20 * time.Millisecond)
	if called {
		t.Fatal("handler called for foreign datagram")
	}
}

func TestProberMeasuresRTT(t *testing.T) {
	const delay = 10 * time.Millisecond
	hub := transport.NewHub(0, delay, 1)
	pEP := hub.Endpoint("prober")
	qEP := hub.Endpoint("target")
	defer pEP.Close()
	defer qEP.Close()

	// The target answers pings.
	recv := NewReceiver(qEP, nil, nil)
	recv.Start()

	prb := NewProber(pEP, "target", nil)
	prb.Start(15 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for prb.Samples() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	prb.Stop()
	if prb.Samples() < 3 {
		t.Fatal("prober collected no samples")
	}
	rtt, ok := prb.RTT()
	if !ok {
		t.Fatal("no RTT estimate")
	}
	// One-way delay is 10 ms each direction → RTT ≈ 20 ms.
	if rtt < 15*time.Millisecond || rtt > 200*time.Millisecond {
		t.Fatalf("RTT = %v, want ≈20ms", rtt)
	}
}

func TestProberNoPongNoEstimate(t *testing.T) {
	hub := transport.NewHub(1.0, 0, 1) // everything lost
	pEP := hub.Endpoint("prober")
	hub.Endpoint("target")
	defer pEP.Close()
	prb := NewProber(pEP, "target", nil)
	prb.Start(5 * time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	prb.Stop()
	if _, ok := prb.RTT(); ok {
		t.Fatal("RTT estimate with 100% loss")
	}
}

func TestUDPEndToEnd(t *testing.T) {
	sEP, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rEP, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sEP.Close()

	var mu sync.Mutex
	var got []Arrival
	recv := NewReceiver(rEP, nil, func(a Arrival) { mu.Lock(); got = append(got, a); mu.Unlock() })
	recv.Start()

	snd := NewSender(sEP, rEP.Addr(), 5*time.Millisecond, nil)
	snd.Start()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 5 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	snd.Stop()
	rEP.Close()
	recv.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(got) < 5 {
		t.Fatalf("UDP loopback delivered only %d heartbeats", len(got))
	}
}

func TestUDPPingPong(t *testing.T) {
	target, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	NewReceiver(target, nil, nil).Start()

	probEP, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer probEP.Close()
	prb := NewProber(probEP, target.Addr(), nil)
	prb.Start(10 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for prb.Samples() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	prb.Stop()
	if prb.Samples() == 0 {
		t.Fatal("no pong over UDP loopback")
	}
	if rtt, ok := prb.RTT(); !ok || rtt <= 0 || rtt > time.Second {
		t.Fatalf("RTT = %v, ok=%v", rtt, ok)
	}
}

func TestUDPSendAfterClose(t *testing.T) {
	ep, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep.Close()
	if err := ep.Send("127.0.0.1:9", []byte("x")); err == nil {
		t.Fatal("send after close succeeded")
	}
	if err := ep.Close(); err != nil {
		t.Fatalf("double close errored: %v", err)
	}
}

func TestHubUnknownDestination(t *testing.T) {
	hub := transport.NewHub(0, 0, 1)
	a := hub.Endpoint("a")
	defer a.Close()
	if err := a.Send("ghost", []byte("x")); err == nil {
		t.Fatal("send to unknown endpoint succeeded")
	}
}

func TestHubDuplicateEndpointPanics(t *testing.T) {
	hub := transport.NewHub(0, 0, 1)
	hub.Endpoint("a")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate endpoint did not panic")
		}
	}()
	hub.Endpoint("a")
}

func TestMemEndpointCloseSemantics(t *testing.T) {
	hub := transport.NewHub(0, 0, 1)
	a := hub.Endpoint("a")
	b := hub.Endpoint("b")
	b.Close()
	if err := b.Send("a", []byte("x")); err != transport.ErrClosed {
		t.Fatalf("send on closed = %v, want ErrClosed", err)
	}
	if err := a.Send("b", []byte("x")); err == nil {
		t.Fatal("send to deregistered endpoint succeeded")
	}
	if _, ok := <-b.Recv(); ok {
		t.Fatal("recv channel not closed")
	}
}
