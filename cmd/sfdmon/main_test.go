package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
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
