package load

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// WatchEvent is one failure transition from a monitor's /watch NDJSON
// stream (the event-line subset the tracker scores).
type WatchEvent struct {
	Event       string  `json:"event"`
	Peer        string  `json:"peer"`
	At          int64   `json:"at_ns"`
	Suspicion   float64 `json:"suspicion"`
	Incarnation uint64  `json:"incarnation"`
	Source      string  `json:"source"`
}

// watchLine is the superset of every NDJSON line shape /watch emits:
// hello, event, heartbeat, done.
type watchLine struct {
	// hello
	Watching string `json:"watching"`
	// event
	Event       string  `json:"event"`
	Peer        string  `json:"peer"`
	At          int64   `json:"at_ns"`
	Suspicion   float64 `json:"suspicion"`
	Incarnation uint64  `json:"incarnation"`
	Source      string  `json:"source"`
	// heartbeat / done
	Heartbeat bool   `json:"heartbeat"`
	Done      bool   `json:"done"`
	Dropped   uint64 `json:"dropped"`
}

// WatchTap is the harness-side /watch client: it holds one streaming
// NDJSON connection to a monitor, parses event lines, and hands them to
// a callback. Connection loss (monitor restart, buffer shed) retries
// with capped backoff until Stop. The server reports its own drop-oldest
// sheds on heartbeat/done lines; the tap surfaces the latest figure so a
// run can tell "no spurious transitions" from "events were shed".
type WatchTap struct {
	base    string
	filter  string
	buf     int
	onEvent func(WatchEvent)

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	once   sync.Once

	events  atomic.Uint64
	reconns atomic.Uint64
	dropped atomic.Uint64
	lastErr atomic.Pointer[string]
	client  *http.Client
}

// NewWatchTap builds a tap on base (e.g. "http://127.0.0.1:8080")
// filtered to the topic filter, with a server-side buffer of buf events.
func NewWatchTap(base, filter string, buf int, fn func(WatchEvent)) *WatchTap {
	ctx, cancel := context.WithCancel(context.Background())
	return &WatchTap{
		base: base, filter: filter, buf: buf, onEvent: fn,
		ctx: ctx, cancel: cancel,
		done:   make(chan struct{}),
		client: &http.Client{}, // no timeout: the stream is long-lived
	}
}

// Start launches the streaming loop.
func (w *WatchTap) Start() {
	go w.run()
}

// Stop severs the connection and waits for the loop to exit.
func (w *WatchTap) Stop() {
	w.once.Do(w.cancel)
	<-w.done
}

// Events returns parsed event lines so far.
func (w *WatchTap) Events() uint64 { return w.events.Load() }

// Reconnects returns how many times the stream had to be re-established.
func (w *WatchTap) Reconnects() uint64 { return w.reconns.Load() }

// Dropped returns the server's latest drop-oldest shed count for this
// subscription.
func (w *WatchTap) Dropped() uint64 { return w.dropped.Load() }

// Err returns the last connection error ("" when healthy).
func (w *WatchTap) Err() string {
	if p := w.lastErr.Load(); p != nil {
		return *p
	}
	return ""
}

func (w *WatchTap) setErr(err error) {
	s := err.Error()
	w.lastErr.Store(&s)
}

func (w *WatchTap) url() string {
	q := url.Values{}
	if w.filter != "" {
		q.Set("filter", w.filter)
	}
	if w.buf > 0 {
		q.Set("buf", fmt.Sprint(w.buf))
	}
	return w.base + "/watch?" + q.Encode()
}

func (w *WatchTap) run() {
	defer close(w.done)
	backoff := 100 * time.Millisecond
	for w.ctx.Err() == nil {
		if err := w.stream(); err != nil && w.ctx.Err() == nil {
			w.setErr(err)
		}
		if w.ctx.Err() != nil {
			return
		}
		w.reconns.Add(1)
		select {
		case <-w.ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

func (w *WatchTap) stream() error {
	req, err := http.NewRequestWithContext(w.ctx, http.MethodGet, w.url(), nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("watch: %s", resp.Status)
	}
	w.lastErr.Store(nil)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var l watchLine
		if err := json.Unmarshal(line, &l); err != nil {
			continue // tolerate foreign lines, never kill the stream
		}
		switch {
		case l.Event != "":
			w.events.Add(1)
			w.onEvent(WatchEvent{
				Event: l.Event, Peer: l.Peer, At: l.At,
				Suspicion: l.Suspicion, Incarnation: l.Incarnation,
				Source: l.Source,
			})
		case l.Heartbeat, l.Done:
			w.dropped.Store(l.Dropped)
		}
	}
	return sc.Err()
}
