package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	sfd "repro"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		args string
		want string // substring of the error; "" = valid
	}{
		{"", ""}, // the demo default
		{"-mode monitor", ""},
		{"-mode aggregate", ""},
		{"-mode watch", ""},
		{"-mode send", ""},
		{"-mode monitor -refresh 250ms -evict -1s", ""},
		{"-mode monitor -gossip -gossip-peers 10.0.0.3:7946", ""},
		{"-mode monitor -chaos 2s+10s:loss(rate=0.4,burst=6)", ""},

		// Reached time.NewTicker and panicked before validate existed.
		{"-mode monitor -refresh 0", "-refresh must be positive"},
		{"-mode monitor -refresh -1s", "-refresh must be positive"},
		{"-mode aggregate -refresh 0", "-refresh must be positive"},
		{"-mode aggregate -refresh -5ms", "-refresh must be positive"},
		// -refresh is a monitor/aggregate flag: other modes ignore it.
		{"-mode send -refresh 0", ""},
		{"-mode watch -refresh 0", ""},

		{"-mode send -to ", "-to host:port"},
		{"-mode send -interval 0", "-interval must be positive"},
		{"-mode send -jitter 1", "-jitter must be in [0,1)"},
		{"-mode send -jitter -0.1", "-jitter must be in [0,1)"},
		{"-mode send -ramp -1s", "-ramp must be non-negative"},
		{"-mode send -name " + strings.Repeat("x", 255), ""},
		// Reached Sender.SetName and panicked before validate checked it.
		{"-mode send -name " + strings.Repeat("x", 256), "-name must be at most 255 bytes"},
		{"-mode monitor -gossip", "-gossip requires -gossip-peers"},
		{"-mode monitor -gossip -gossip-peers ,", "-gossip requires -gossip-peers"},
		{"-mode aggregate -gossip", ""}, // a monitor flag
		{"-mode monitor -chaos nonsense(", "-chaos:"},
		{"-mode serve", `unknown mode "serve"`},
	}
	for _, tc := range cases {
		c, err := parse(tc.args)
		if err != nil {
			t.Errorf("%q: flags did not parse: %v", tc.args, err)
			continue
		}
		err = c.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: rejected: %v", tc.args, err)
		case tc.want != "" && err == nil:
			t.Errorf("%q: accepted, want an error containing %q", tc.args, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%q: error %q, want it to contain %q", tc.args, err, tc.want)
		}
	}
}

func parse(args string) (*config, error) {
	var c config
	fs := flag.NewFlagSet("sfdmon", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.bind(fs)
	return &c, fs.Parse(strings.Split(args, " "))
}

// TestSendersFromSameFlagsDrawDifferentRamps: -ramp exists to spread a
// fleet's first beats, so two sfdmon senders started with identical
// flags must not draw the same start delay.
func TestSendersFromSameFlagsDrawDifferentRamps(t *testing.T) {
	var delays [2]time.Duration
	for i := range delays {
		c, err := parse("-mode send -ramp 1h -jitter 0.2")
		if err == nil {
			err = c.validate()
		}
		if err != nil {
			t.Fatal(err)
		}
		snd, err := newSender(c, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		delays[i] = snd.StartDelay()
	}
	if delays[0] == delays[1] {
		t.Fatalf("both senders drew start delay %v", delays[0])
	}
}

// TestRestartedNamedSenderIsAccepted: a restarted `-mode send -name`
// process keeps its stream name but begins again at sequence 1, so it
// must beat at a higher incarnation than its previous life. Otherwise the
// monitor drops every beat of the new life as stale and reads the
// stream offline until eviction, which `-evict -1` never does.
func TestRestartedNamedSenderIsAccepted(t *testing.T) {
	rx, err := sfd.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	clk := sfd.NewRealClock()
	reg := sfd.NewRegistry(clk, nil, sfd.RegistryOptions{EvictAfter: -1})
	reg.Start()
	defer reg.Stop()
	recv := sfd.NewHeartbeatReceiver(rx, clk, reg.Observe)
	recv.Start()
	// The registry is the stale filter: read what it accepted and dropped.
	counts := func() (accepted, stale uint64) {
		c := reg.Counters()
		return c.Heartbeats, c.Stale
	}

	const beats = 16
	life := func() (accepted, stale uint64) {
		c, err := parse("-mode send -name svc/a -interval 2ms -to " + rx.Addr())
		if err == nil {
			err = c.validate()
		}
		if err != nil {
			t.Fatal(err)
		}
		tx, err := sfd.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Close()
		a0, s0 := counts()
		snd, err := newSender(c, tx, clk)
		if err != nil {
			t.Fatal(err)
		}
		snd.Start()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if a, s := counts(); a+s-a0-s0 >= beats {
				break
			}
		}
		snd.Stop()
		// Let the last beats in flight land inside this life's counts.
		for prev := ^uint64(0); ; time.Sleep(20 * time.Millisecond) {
			a, s := counts()
			if a+s == prev {
				return a - a0, s - s0
			}
			prev = a + s
		}
	}
	if a, s := life(); a < beats || s != 0 {
		t.Fatalf("first life: %d accepted, %d stale; want >= %d accepted, 0 stale", a, s, beats)
	}
	if a, s := life(); a < beats || s != 0 {
		t.Fatalf("second life: %d accepted, %d stale; want >= %d accepted, 0 stale", a, s, beats)
	}
	if st, _ := reg.StatusOf("svc/a", clk.Now()); st != sfd.PeerActive {
		t.Fatalf("svc/a after the restart: %v, want active", st)
	}
}
