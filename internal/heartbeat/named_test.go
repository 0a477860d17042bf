package heartbeat

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/transport"
)

func TestNamedMessageRoundTrip(t *testing.T) {
	cases := []Message{
		{Kind: KindHeartbeat, Seq: 1, Time: 100, Inc: 3, Name: "a"},
		{Kind: KindHeartbeat, Seq: 9, Time: 7, Inc: 1, Name: "dc/rack-3/web-17"},
		{Kind: KindHeartbeat, Seq: 0, Time: 0, Inc: 0, Name: strings.Repeat("x", MaxNameLen)},
	}
	for _, m := range cases {
		b := m.Marshal()
		if want := 29 + len(m.Name); len(b) != want {
			t.Fatalf("v3 %q: wire size %d, want %d", m.Name, len(b), want)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%q: %v", m.Name, err)
		}
		if got != m {
			t.Fatalf("round trip: %+v → %+v", m, got)
		}
	}
}

func TestUnnamedStaysWireV2(t *testing.T) {
	m := Message{Kind: KindHeartbeat, Seq: 5, Time: 10, Inc: 2}
	if b := m.Marshal(); len(b) != 28 {
		t.Fatalf("empty name must emit v2 (28 bytes), got %d", len(b))
	}
}

func TestNamedRejectsBadWire(t *testing.T) {
	base := (Message{Kind: KindHeartbeat, Name: "peer"}).Marshal()
	cases := map[string][]byte{
		"truncated name": base[:len(base)-1],
		"zero name len": func() []byte {
			b := append([]byte(nil), base...)
			b[28] = 0
			return b[:29]
		}(),
		"length overruns": func() []byte {
			b := append([]byte(nil), base...)
			b[28] = 200
			return b
		}(),
	}
	for name, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAppendToReusesBuffer(t *testing.T) {
	m := Message{Kind: KindHeartbeat, Seq: 1, Time: 2, Inc: 3, Name: "dc/s-00001"}
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		buf = m.AppendTo(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendTo into a sized buffer allocated %.1f times/op", allocs)
	}
	got, err := Unmarshal(buf)
	if err != nil || got != m {
		t.Fatalf("reused-buffer round trip: %+v, %v", got, err)
	}
}

func TestMarshalPanicsOnOverlongName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 256-byte name")
		}
	}()
	(&Message{Kind: KindHeartbeat, Name: strings.Repeat("n", MaxNameLen+1)}).Marshal()
}

// TestReceiverKeysByName is the heart of wire v3: the arrival carries
// the logical name beside the socket address, so two sockets carrying
// one name reach the registry as one stream. The receiver keeps no
// per-stream state, so the duplicate from the old socket is handed on
// too; the registry drops it as stale.
func TestReceiverKeysByName(t *testing.T) {
	hub := transport.NewHub(0, 0, 1)
	mon := hub.Endpoint("mon")
	sockA := hub.Endpoint("sockA")
	sockB := hub.Endpoint("sockB")
	clk := clock.NewSim(clock.Time(0))

	var arrivals []Arrival
	var mu sync.Mutex
	r := NewReceiver(mon, clk, func(a Arrival) {
		a.Name = strings.Clone(a.Name) // valid only during the call
		mu.Lock()
		arrivals = append(arrivals, a)
		mu.Unlock()
	})
	r.Start()
	defer mon.Close()

	send := func(ep transport.Endpoint, seq uint64) {
		m := Message{Kind: KindHeartbeat, Seq: seq, Time: clk.Now(), Inc: 1, Name: "app/db-1"}
		if err := ep.Send("mon", m.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	send(sockA, 0)
	send(sockA, 1)
	send(sockB, 2) // same stream continues from a new source address
	send(sockA, 2) // duplicate seq from the old address
	waitFor(t, "4 named arrivals", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(arrivals) == 4
	})

	mu.Lock()
	defer mu.Unlock()
	want := []struct {
		from string
		seq  uint64
	}{{"sockA", 0}, {"sockA", 1}, {"sockB", 2}, {"sockA", 2}}
	for i, w := range want {
		a := arrivals[i]
		if a.Name != "app/db-1" || a.From != w.from || a.Seq != w.seq {
			t.Fatalf("arrival %d = name %q from %q seq %d, want name app/db-1 from %q seq %d",
				i, a.Name, a.From, a.Seq, w.from, w.seq)
		}
	}
}

// TestReceiverNamedDecodeNoAlloc locks in the alloc-free ingest path:
// Decode returns the name as a sub-slice of the datagram, and the
// receiver hands it on without materializing a string.
func TestReceiverNamedDecodeNoAlloc(t *testing.T) {
	m := Message{Kind: KindHeartbeat, Seq: 1, Time: 2, Inc: 1, Name: "dc/s-00042"}
	b := m.Marshal()
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := Decode(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Decode allocated %.1f times/op", allocs)
	}
}
