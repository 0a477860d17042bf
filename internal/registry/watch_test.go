package registry

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/heartbeat"
)

func newWatchTestRegistry(clk clock.Clock) *Registry {
	return New(clk, func(string) detector.Detector {
		return detector.NewFixed(500*clock.Millisecond, 1)
	}, Options{OfflineAfter: -1, EvictAfter: -1, MaxSilence: -1})
}

// waitForTopicSubs polls until the trie holds want topic subscriptions —
// the handshake that the /watch handler goroutine has subscribed.
func waitForTopicSubs(t *testing.T, reg *Registry, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Bus().FanoutStats().Subscriptions != want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d topic subscriptions", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchStreamsFilteredEvents drives the full HTTP path: a /watch
// client with a narrow filter and max=2 must receive a hello line, then
// exactly its two matching events as NDJSON, then a done summary — and
// nothing from outside its subtree.
func TestWatchStreamsFilteredEvents(t *testing.T) {
	sim := clock.NewSim(0)
	reg := newWatchTestRegistry(sim)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	lines := make(chan string, 16)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/watch?filter=" + "eu%2F%23" + "&max=2")
		if err != nil {
			errc <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errc <- fmt.Errorf("status = %d", resp.StatusCode)
			return
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
			errc <- fmt.Errorf("content-type = %q", ct)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		errc <- sc.Err()
	}()

	waitForTopicSubs(t, reg, 1)
	bus := reg.Bus()
	bus.Publish(Event{Type: EventSuspect, Peer: "eu/zrh/web-1", At: 7, Suspicion: 0.9})
	bus.Publish(Event{Type: EventOffline, Peer: "us/iad/web-9", At: 8}) // filtered out
	bus.Publish(Event{Type: EventTrust, Peer: "eu/ams/db-2", At: 9, Incarnation: 3})

	read := func() string {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended early (reader err: %v)", <-errc)
			}
			return l
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for a watch line")
			return ""
		}
	}

	var hello watchHelloJSON
	if err := json.Unmarshal([]byte(read()), &hello); err != nil || hello.Watching != "eu/#" {
		t.Fatalf("bad hello line (err %v): %+v", err, hello)
	}
	var ev1, ev2 watchEventJSON
	if err := json.Unmarshal([]byte(read()), &ev1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(read()), &ev2); err != nil {
		t.Fatal(err)
	}
	if ev1.Peer != "eu/zrh/web-1" || ev1.Event != "suspect" || ev1.Suspicion != 0.9 {
		t.Fatalf("event 1 = %+v", ev1)
	}
	if ev2.Peer != "eu/ams/db-2" || ev2.Event != "trust" || ev2.Incarnation != 3 {
		t.Fatalf("event 2 = %+v", ev2)
	}
	var done watchDoneJSON
	if err := json.Unmarshal([]byte(read()), &done); err != nil || !done.Done || done.Delivered != 2 {
		t.Fatalf("bad done line (err %v): %+v", err, done)
	}
	if _, ok := <-lines; ok {
		t.Fatal("stream kept flowing past the done line")
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	// The handler's deferred Close must detach the trie subscription.
	waitForTopicSubs(t, reg, 0)
}

// TestWatchHeartbeatCarriesDropAccounting uses a real clock and a tiny
// keepalive so an idle connection emits heartbeat lines, and checks the
// per-connection delivered/dropped accounting rides along on them.
func TestWatchHeartbeatCarriesDropAccounting(t *testing.T) {
	reg := newWatchTestRegistry(clock.NewReal())
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/watch?filter=a%2F%23&buf=1&heartbeat=10ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no hello line: %v", sc.Err())
	}

	// Overrun the buf=1 subscription before the handler can drain it:
	// with N back-to-back publishes at least one must be dropped, and the
	// drop must show up on this connection's heartbeat line.
	waitForTopicSubs(t, reg, 1)
	for i := 0; i < 32; i++ {
		reg.Bus().Publish(Event{Type: EventSuspect, Peer: "a/b", At: clock.Time(i)})
	}

	sawDrop := false
	for i := 0; i < 200 && sc.Scan(); i++ {
		var hb watchHeartbeatJSON
		if err := json.Unmarshal(sc.Bytes(), &hb); err != nil || !hb.Heartbeat {
			continue // an event line
		}
		if hb.Delivered < hb.Dropped || hb.Delivered == 0 {
			t.Fatalf("implausible accounting: %+v", hb)
		}
		if hb.Dropped > 0 {
			sawDrop = true
			break
		}
	}
	if !sawDrop {
		t.Fatal("never saw a heartbeat line reporting this connection's drops")
	}
}

// TestWatchRejectsInvalidParams covers the 400 paths.
func TestWatchRejectsInvalidParams(t *testing.T) {
	reg := newWatchTestRegistry(clock.NewSim(0))
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	for _, q := range []string{
		"filter=a%2F%2Fb",  // empty segment
		"filter=a%23b",     // '#' inside a segment
		"filter=%23%2Fa",   // '#' not last
		"buf=0",            // non-positive buffer
		"buf=x",            // not an integer
		"heartbeat=-1s",    // non-positive keepalive
		"heartbeat=fast",   // not a duration
		"max=-1",           // negative cap
		"filter=a&max=1.5", // not an integer
	} {
		resp, err := http.Get(srv.URL + "/watch?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /watch?%s status = %d, want 400", q, resp.StatusCode)
		}
	}
	if n := reg.Bus().FanoutStats().Subscriptions; n != 0 {
		t.Fatalf("rejected requests leaked %d subscriptions", n)
	}
}

// TestVarsExposesSubscriptionStats checks /vars lists every live
// subscription with filter and drop accounting.
func TestVarsExposesSubscriptionStats(t *testing.T) {
	sim := clock.NewSim(0)
	reg := newWatchTestRegistry(sim)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	fire := reg.Subscribe(4)
	defer fire.Close()
	topic, err := reg.SubscribeTopic("eu/+", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer topic.Close()
	reg.Bus().Publish(Event{Type: EventSuspect, Peer: "eu/a", At: 1})

	resp, err := http.Get(srv.URL + "/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars varsJSON
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if len(vars.Subscriptions) != 2 {
		t.Fatalf("subscriptions = %+v, want 2 entries", vars.Subscriptions)
	}
	byID := map[uint64]SubscriptionStats{}
	for _, s := range vars.Subscriptions {
		byID[s.ID] = s
	}
	f, ok := byID[fire.ID()]
	if !ok || f.Filter != "" || f.Delivered != 1 {
		t.Fatalf("firehose stats = %+v", f)
	}
	tp, ok := byID[topic.ID()]
	if !ok || tp.Filter != "eu/+" || tp.Delivered != 1 || tp.Buffer != 8 {
		t.Fatalf("topic stats = %+v", tp)
	}
}

// TestWatchMaxConnsSaturation pins the connection cap: with
// WatchMaxConns=2, a third concurrent /watch gets 503 with a
// Retry-After header, and closing a stream frees its slot.
func TestWatchMaxConnsSaturation(t *testing.T) {
	sim := clock.NewSim(0)
	reg := New(sim, func(string) detector.Detector {
		return detector.NewFixed(500*clock.Millisecond, 1)
	}, Options{OfflineAfter: -1, EvictAfter: -1, MaxSilence: -1, WatchMaxConns: 2})
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	open := func() *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + "/watch?filter=%23")
		if err != nil {
			t.Fatalf("GET /watch: %v", err)
		}
		return resp
	}
	r1, r2 := open(), open()
	defer r1.Body.Close()
	defer r2.Body.Close()
	if r1.StatusCode != http.StatusOK || r2.StatusCode != http.StatusOK {
		t.Fatalf("first two connections: %d, %d, want 200s", r1.StatusCode, r2.StatusCode)
	}
	waitForTopicSubs(t, reg, 2)

	r3 := open()
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third connection status = %d, want 503", r3.StatusCode)
	}
	if ra := r3.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 response missing Retry-After header")
	}
	if got := reg.Counters().WatchRejected; got != 1 {
		t.Fatalf("watch_rejected = %d, want 1", got)
	}

	// Free a slot: the next connection must be admitted again.
	r1.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r4, err := http.Get(srv.URL + "/watch?filter=%23")
		if err != nil {
			t.Fatalf("GET /watch after close: %v", err)
		}
		code := r4.StatusCode
		r4.Body.Close()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: still %d", code)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestForEachStream pins the federation roll-up hatch: every registered
// stream is visited exactly once with its phase and incarnation, and
// self-tuning QoS fields surface once the detector has adjusted a slot.
func TestForEachStream(t *testing.T) {
	sim := clock.NewSim(0)
	reg := New(sim, func(string) detector.Detector {
		return detector.NewFixed(100*clock.Millisecond, 1)
	}, Options{WheelTick: 10 * clock.Millisecond, OfflineAfter: 200 * clock.Millisecond,
		MaxSilence: -1, EvictAfter: -1})
	reg.Start()

	now := sim.Now()
	for i := 0; i < 10; i++ {
		reg.Observe(heartbeatArrivalAt(fmt.Sprintf("eu/a/s%d", i), 1, now, 3))
	}
	// Let half of them expire into suspicion, two all the way offline.
	sim.Advance(150 * clock.Millisecond)
	for i := 0; i < 5; i++ {
		reg.Observe(heartbeatArrivalAt(fmt.Sprintf("eu/a/s%d", i), 2, sim.Now(), 3))
	}
	// Unrefreshed streams: suspected ≈ t=100ms, offline ≈ t=300ms.
	// Refreshed streams: suspected ≈ t=250ms, offline ≈ t=450ms.
	// At t=350ms the sweep sees 5 offline and 5 suspected.
	sim.Advance(200 * clock.Millisecond)

	got := make(map[string]StreamView)
	reg.ForEachStream(func(v StreamView) { got[v.Peer] = v })
	if len(got) != 10 {
		t.Fatalf("visited %d streams, want 10", len(got))
	}
	offline := 0
	for peer, v := range got {
		if !v.Seen {
			t.Fatalf("%s reported unseen", peer)
		}
		if v.Incarnation != 3 {
			t.Fatalf("%s incarnation = %d, want 3", peer, v.Incarnation)
		}
		if v.Phase == StreamOffline {
			offline++
		}
	}
	if offline != 5 {
		t.Fatalf("offline phase count = %d, want 5", offline)
	}
}

func heartbeatArrivalAt(peer string, seq uint64, now clock.Time, inc uint64) heartbeat.Arrival {
	return heartbeat.Arrival{From: peer, Seq: seq, Send: now, Recv: now, Inc: inc}
}

// chunkRecorder is an http.ResponseWriter that hands the test each
// flushed chunk, with the number of Write calls that made it and the
// subscription backlog at the moment of the Flush. The hand-off is
// unbuffered, so the handler stays parked in Flush until the test takes
// the chunk: the test decides what is queued before the handler's next
// drain.
type chunkRecorder struct {
	header  http.Header
	bus     *Bus
	pending []byte
	writes  int
	chunks  chan watchChunk
}

type watchChunk struct {
	writes int
	queued int // events waiting on the bus subscriptions at the Flush
	data   string
}

func (c *chunkRecorder) Header() http.Header { return c.header }
func (c *chunkRecorder) WriteHeader(int)     {}
func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.pending = append(c.pending, p...)
	c.writes++
	return len(p), nil
}
func (c *chunkRecorder) Flush() {
	queued := 0
	for _, s := range c.bus.SubscriptionStats() {
		queued += s.Queued
	}
	c.chunks <- watchChunk{writes: c.writes, queued: queued, data: string(c.pending)}
	c.pending, c.writes = c.pending[:0], 0
}

// serveWatchChunks runs GET /watch?query on a chunkRecorder until stop,
// and returns once the subscription exists, with the handler parked in
// its hello line's Flush.
func serveWatchChunks(t *testing.T, reg *Registry, query string) (chunks <-chan watchChunk, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	rec := &chunkRecorder{header: make(http.Header), bus: reg.Bus(), chunks: make(chan watchChunk)}
	req := httptest.NewRequest(http.MethodGet, "/watch?"+query, nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		reg.Handler().ServeHTTP(rec, req)
	}()
	waitForTopicSubs(t, reg, 1)
	return rec.chunks, func() {
		cancel()
		for {
			select {
			case <-done:
				return
			case <-rec.chunks: // a failed test may leave the handler parked in Flush
			}
		}
	}
}

// nextChunk takes the handler's next flushed chunk; each must be exactly
// one Write.
func nextChunk(t *testing.T, chunks <-chan watchChunk) watchChunk {
	t.Helper()
	select {
	case c := <-chunks:
		if c.writes != 1 {
			t.Fatalf("one Flush carried %d Writes, want 1: %q", c.writes, c.data)
		}
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a /watch write")
		return watchChunk{}
	}
}

// burstEvents returns n events whose lines each carry a detail of
// detailLen bytes, and the lines encoding/json writes for them.
func burstEvents(t *testing.T, n, detailLen int) ([]Event, string) {
	evs := make([]Event, n)
	var lines strings.Builder
	for i := range evs {
		evs[i] = Event{Type: EventSuspect, Peer: fmt.Sprintf("dc/zone-1/rack-01/s-%02d", i), At: clock.Time(i + 1),
			Suspicion: 1.25, Incarnation: 1}.WithNote("", strings.Repeat("d", detailLen))
		line, err := encodeReference(evs[i])
		if err != nil {
			t.Fatal(err)
		}
		lines.Write(line)
	}
	return evs, lines.String()
}

// TestWatchCoalescesQueuedBurst: a 100-event burst that is queued when
// the writer wakes goes out in ⌈bytes / watchWriteCap⌉ writes, one Flush
// each, not 100, with the lines byte-identical and in order.
func TestWatchCoalescesQueuedBurst(t *testing.T) {
	for _, detailLen := range []int{0, 1000} {
		t.Run(fmt.Sprintf("detail%d", detailLen), func(t *testing.T) {
			reg := newWatchTestRegistry(clock.NewSim(0))
			chunks, stop := serveWatchChunks(t, reg, "buf=128")
			defer stop()
			evs, want := burstEvents(t, 100, detailLen)
			for _, ev := range evs {
				reg.Bus().Publish(ev)
			}
			nextChunk(t, chunks) // hello
			var got strings.Builder
			writes := 0
			for got.Len() < len(want) {
				got.WriteString(nextChunk(t, chunks).data)
				writes++
			}
			if got.String() != want {
				t.Fatalf("burst lines differ from encoding/json's:\n got  %q\n want %q", got.String(), want)
			}
			if cap := (len(want) + watchWriteCap - 1) / watchWriteCap; writes != cap {
				t.Fatalf("%d-byte burst of 100 events went out in %d writes, want %d", len(want), writes, cap)
			}
		})
	}
}

// TestWatchFlushesLoneEvent: an event with nothing queued behind it is
// written and flushed at once; the writer does not wait for company.
func TestWatchFlushesLoneEvent(t *testing.T) {
	reg := newWatchTestRegistry(clock.NewSim(0))
	chunks, stop := serveWatchChunks(t, reg, "")
	defer stop()
	nextChunk(t, chunks) // hello
	evs, _ := burstEvents(t, 2, 0)
	for _, ev := range evs {
		reg.Bus().Publish(ev)
		want, _ := encodeReference(ev)
		if c := nextChunk(t, chunks); c.data != string(want) {
			t.Fatalf("lone event chunk %q, want %q", c.data, want)
		}
	}
}

// TestWatchMaxStopsReadingAtMax: with max=10 and 100 events queued, the
// writer writes exactly ten event lines and the done line, and leaves the
// other 90 on the subscription: an event read past max would be lost.
func TestWatchMaxStopsReadingAtMax(t *testing.T) {
	reg := newWatchTestRegistry(clock.NewSim(0))
	chunks, stop := serveWatchChunks(t, reg, "buf=128&max=10")
	defer stop()
	evs, _ := burstEvents(t, 100, 0)
	for _, ev := range evs {
		reg.Bus().Publish(ev)
	}
	nextChunk(t, chunks) // hello
	_, want := burstEvents(t, 10, 0)
	want += `{"done":true,"delivered":100,"dropped":0}` + "\n"
	var got strings.Builder
	var last watchChunk
	for got.Len() < len(want) {
		last = nextChunk(t, chunks)
		got.WriteString(last.data)
	}
	if got.String() != want {
		t.Fatalf("max=10 stream:\n got  %q\n want %q", got.String(), want)
	}
	if last.queued != 90 {
		t.Fatalf("%d events left queued when the done line was flushed, want 90", last.queued)
	}
}

// TestWatchKeepaliveAccounting: keepalive lines are written alone, with
// the connection's delivered, dropped and queued counts as before.
func TestWatchKeepaliveAccounting(t *testing.T) {
	sim := clock.NewSim(0)
	reg := newWatchTestRegistry(sim)
	chunks, stop := serveWatchChunks(t, reg, "buf=2&heartbeat=1s")
	defer stop()
	evs, want := burstEvents(t, 3, 0)
	for _, ev := range evs {
		reg.Bus().Publish(ev) // the third displaces the first
	}
	nextChunk(t, chunks) // hello; the keepalive timer is armed after it
	want = want[strings.IndexByte(want, '\n')+1:]
	var got strings.Builder
	for got.Len() < len(want) {
		got.WriteString(nextChunk(t, chunks).data)
	}
	if got.String() != want {
		t.Fatalf("events after drop-oldest: %q, want %q", got.String(), want)
	}
	sim.Advance(clock.Second)
	const hb = `{"heartbeat":true,"now_ns":1000000000,"delivered":3,"dropped":1,"queued":0}` + "\n"
	if c := nextChunk(t, chunks); c.data != hb {
		t.Fatalf("keepalive %q, want %q", c.data, hb)
	}
}
