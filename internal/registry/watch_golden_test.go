package registry

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clock"
	"repro/internal/fanout"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/watch.golden from the current /watch writer")

// watchEventJSON is the reference schema of a /watch event line:
// appendWatchEvent must write exactly what json.Encoder writes for it.
type watchEventJSON struct {
	Event       string  `json:"event"`
	Peer        string  `json:"peer"`
	At          int64   `json:"at_ns"`
	Suspicion   float64 `json:"suspicion,omitempty"`
	Incarnation uint64  `json:"incarnation,omitempty"`
	Source      string  `json:"source,omitempty"`
	Detail      string  `json:"detail,omitempty"`
}

// encodeReference is the /watch event line encoding/json writes for ev.
func encodeReference(ev Event) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(watchEventJSON{
		Event:       ev.Type.String(),
		Peer:        ev.Peer,
		At:          int64(ev.At),
		Suspicion:   ev.Suspicion,
		Incarnation: ev.Incarnation,
		Source:      ev.Source,
		Detail:      ev.Detail,
	})
	return buf.Bytes(), err
}

// watchGoldenEvents is the table behind testdata/watch.golden: every
// EventType (and one unknown), stream names with every class of byte the
// JSON string encoder escapes or replaces — all accepted by
// fanout.ValidateName — and the number edge cases of the float, int and
// uint encoders, with Source and Detail both empty and set.
func watchGoldenEvents() []Event {
	names := []string{
		"eu/zrh/web-1",
		`q"uote/back\slash`,
		"html/<b>&amp;</b>",
		"ctl/\x00\x01\b\t\n\f\r\x1f\x7f",
		"utf8/\xff\xfe/\xe2\x80/\xc3",
		"sep/\u2028\u2029",
		"uni/üñïçødé/\U0001F600",
		"10.0.0.1:9000",
	}
	types := []EventType{EventSuspect, EventTrust, EventOffline, EventEvicted, EventCannotSatisfy,
		EventGlobalSuspect, EventGlobalOffline, EventGlobalTrust, EventType(0)}
	ats := []clock.Time{0, 7, -1, math.MaxInt64, math.MinInt64}
	suspicions := []float64{0, 1e-7, 1.5, 1e21, -2.5, math.Copysign(0, -1), 1e-6, 123456789.125,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1e20}
	incarnations := []uint64{0, 1, math.MaxUint64}
	sources := []string{"", "mon-b:7946"}
	details := []string{"", "quorum 2/3 <w=0.5>", "cannot satisfy: TD \"500ms\"\n", "\u2028\xff"}

	var evs []Event
	for i, name := range names {
		for j, typ := range types {
			k := i*len(types) + j
			evs = append(evs, Event{
				Type:        typ,
				Peer:        name,
				At:          ats[k%len(ats)],
				Suspicion:   suspicions[k%len(suspicions)],
				Incarnation: incarnations[k%len(incarnations)],
				Source:      sources[k%len(sources)],
				Detail:      details[k%len(details)],
			})
		}
	}
	return evs
}

// watchBody opens one GET /watch?<query> on a fresh registry under an
// unadvanced clock.Sim (so no keepalive fires), publishes evs once the
// subscription exists, and returns the whole response body.
func watchBody(t *testing.T, query string, evs []Event) []byte {
	t.Helper()
	reg := newWatchTestRegistry(clock.NewSim(0))
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	type result struct {
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/watch?" + query)
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- result{body, err}
	}()
	waitForTopicSubs(t, reg, 1)
	for _, ev := range evs {
		reg.Bus().Publish(ev)
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	return res.body
}

// TestWatchGolden pins the /watch stream byte for byte: hello line, one
// line per event of watchGoldenEvents, done line. The golden file was
// generated from the per-event json.Encoder writer, before the writer
// encoded events itself, with
//
//	go test ./internal/registry -run TestWatchGolden -update-golden
func TestWatchGolden(t *testing.T) {
	evs := watchGoldenEvents()
	for _, ev := range evs {
		if err := fanout.ValidateName(ev.Peer); err != nil {
			t.Fatalf("golden stream name %q is not a valid stream name: %v", ev.Peer, err)
		}
	}
	got := watchBody(t, fmt.Sprintf("max=%d", len(evs)), evs)
	path := filepath.Join("testdata", "watch.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s line %d changed\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestWatchNonFiniteSuspicionEndsStream pins what a NaN or infinite
// Suspicion does, which JSON cannot carry: the events before it are
// written, the stream ends without that event's line or a done line, and
// nothing after it is written.
func TestWatchNonFiniteSuspicionEndsStream(t *testing.T) {
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(s), func(t *testing.T) {
			evs := []Event{
				{Type: EventSuspect, Peer: "a/b", At: 1, Suspicion: 0.5},
				{Type: EventSuspect, Peer: "a/c", At: 2, Suspicion: s},
				{Type: EventTrust, Peer: "a/b", At: 3},
			}
			got := string(watchBody(t, "max=3", evs))
			want := `{"watching":"#","subscription_id":1,"buffer":256}` + "\n" +
				`{"event":"suspect","peer":"a/b","at_ns":1,"suspicion":0.5}` + "\n"
			if got != want {
				t.Fatalf("body\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// FuzzWatchEventEncoding: for any event, appendWatchEvent appends exactly
// the line encoding/json writes, or, for a non-finite Suspicion (which
// encoding/json rejects), reports false and appends nothing.
func FuzzWatchEventEncoding(f *testing.F) {
	for _, ev := range watchGoldenEvents() {
		f.Add(uint8(ev.Type), ev.Peer, int64(ev.At), ev.Suspicion, ev.Incarnation, ev.Source, ev.Detail)
	}
	f.Add(uint8(EventSuspect), "a/b", int64(1), math.NaN(), uint64(0), "", "")
	f.Fuzz(func(t *testing.T, typ uint8, peer string, at int64, suspicion float64, inc uint64, source, detail string) {
		ev := Event{Type: EventType(typ), Peer: peer, At: clock.Time(at), Suspicion: suspicion,
			Incarnation: inc, Source: source, Detail: detail}
		prefix := []byte("prior line\n")
		got, ok := appendWatchEvent(prefix, ev)
		want, err := encodeReference(ev)
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("appendWatchEvent clobbered the buffer it appends to: %q", got)
		}
		got = got[len(prefix):]
		if err != nil {
			if ok || len(got) != 0 {
				t.Fatalf("encoding/json rejects %+v (%v), appendWatchEvent wrote %q", ev, err, got)
			}
			return
		}
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("%+v:\n got  %q (ok %v)\n want %q", ev, got, ok, want)
		}
	})
}

// BenchmarkWatchEncode appends one storm-shaped suspect line into a
// reused buffer: the per-event cost of the /watch writer, which must not
// allocate.
func BenchmarkWatchEncode(b *testing.B) {
	ev := Event{Type: EventSuspect, Peer: "dc/zone-3/rack-07/s-42", At: 1_700_000_000_123_456_789,
		Suspicion: 1.0417, Incarnation: 2}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = appendWatchEvent(buf[:0], ev)
	}
	b.SetBytes(int64(len(buf)))
}
