package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		args string
		want string // substring of the error; "" = valid
	}{
		{"", ""}, // WAN-1 at the default count
		{"-env WAN-JPCH -n 1", ""},
		{"-env WAN-2 -n 50000 -stats", ""},
		{"-env WAN-6 -csv -o x.csv", ""},

		// Wrote an empty trace and exited 0 before validate existed.
		{"-n 0", "-n must be at least 1"},
		{"-n -5", "-n must be at least 1"},
		{"-n -5 -stats", "-n must be at least 1"},
		{"-n -5 -csv", "-n must be at least 1"},
		// -full overrides -n, and -list reads neither.
		{"-n -5 -full", ""},
		{"-n -5 -list", ""},
		{"-env WAN-99", "unknown preset"},
		{"-env WAN-99 -list", ""},
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
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.bind(fs)
	return &c, fs.Parse(strings.Fields(args))
}
