package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		args string
		want string // substring of the error; "" = valid
	}{
		{"-env WAN-1", ""},
		{"-env WAN-JPCH -fd phi -phi 8 -n 1 -ws 1", ""},
		{"-env WAN-1 -fd chen -sweep 0,50,100", ""},
		{"-in wan1.hbtr -fd bertier", ""},
		{"-env WAN-1 -fd fixed -crash 100", ""},

		{"", "need -env or -in"},
		{"-env WAN-99", "unknown preset"},
		// Printed a vacuous QAP=100% report and exited 0 before validate
		// existed.
		{"-env WAN-1 -n 0", "-n must be at least 1"},
		{"-env WAN-1 -n -5", "-n must be at least 1"},
		// -n only sizes a generated trace.
		{"-in wan1.hbtr -n -5", ""},
		// Ran silently with a 1000-sample window before validate existed.
		{"-env WAN-1 -ws 0", "-ws must be at least 1"},
		{"-env WAN-1 -ws -3", "-ws must be at least 1"},
		{"-in wan1.hbtr -ws 0", "-ws must be at least 1"},
		{"-env WAN-1 -fd swim", `unknown detector "swim"`},
		{"-env WAN-1 -sweep 10,x", `bad sweep value "x"`},
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

func TestValidateResolvesSweep(t *testing.T) {
	c, err := parse("-env WAN-1 -sweep 0,50,1600")
	if err == nil {
		err = c.validate()
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 50, 1600}; !reflect.DeepEqual(c.params, want) {
		t.Fatalf("params %v, want %v", c.params, want)
	}
}

func parse(args string) (*config, error) {
	var c config
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.bind(fs)
	return &c, fs.Parse(strings.Fields(args))
}
