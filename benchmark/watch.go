package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"
)

// watchClient is the operator's view of a monitor: one GET /watch
// connection, read line by line, each verdict stamped as it is read.
type watchClient struct {
	filter string
	cancel context.CancelFunc
	resp   *http.Response
	rd     *bufio.Reader
	done   chan struct{}

	// Written by the read loop, read after stop.
	events   uint64
	suspects uint64
	trusts   uint64
	dropped  uint64 // the connection's own drop count, from keepalive lines
	err      error
}

type watchLine struct {
	Watching  string `json:"watching"`
	Event     string `json:"event"`
	Peer      string `json:"peer"`
	At        int64  `json:"at_ns"`
	Heartbeat bool   `json:"heartbeat"`
	Dropped   uint64 `json:"dropped"`
}

// watchBuf is the server-side subscription buffer the client asks for:
// deep enough for a whole storm burst, so nothing is dropped by design.
const watchBuf = 16384

// openWatch connects and returns once the hello line has arrived, i.e.
// once the subscription exists on the bus.
func openWatch(base, filter string) (*watchClient, error) {
	ctx, cancel := context.WithCancel(context.Background())
	u := fmt.Sprintf("%s/watch?filter=%s&buf=%d&heartbeat=1s", base, url.QueryEscape(filter), watchBuf)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("watch connect: %w", err)
	}
	w := &watchClient{filter: filter, cancel: cancel, resp: resp, rd: bufio.NewReaderSize(resp.Body, 1<<16), done: make(chan struct{})}
	if resp.StatusCode != http.StatusOK {
		w.close()
		return nil, fmt.Errorf("watch connect: status %d", resp.StatusCode)
	}
	line, err := w.rd.ReadSlice('\n')
	var hello watchLine
	if err == nil {
		err = json.Unmarshal(line, &hello)
	}
	if err != nil || hello.Watching != filter {
		w.close()
		return nil, fmt.Errorf("watch hello: %q: %v", line, err)
	}
	return w, nil
}

// run reads until the connection closes, handing every suspect verdict
// to onSuspect with the clock reading taken as its line was read.
func (w *watchClient) run(clk *benchClock, onSuspect func(peer string, eventAt, receipt int64)) {
	go func() {
		defer close(w.done)
		for {
			line, err := w.rd.ReadSlice('\n')
			if err != nil {
				w.err = err
				return
			}
			receipt := clk.ns()
			var l watchLine
			if err := json.Unmarshal(line, &l); err != nil {
				w.err = fmt.Errorf("watch line %q: %w", line, err)
				return
			}
			switch {
			case l.Heartbeat:
				w.dropped = l.Dropped
			case l.Event != "":
				w.events++
				switch l.Event {
				case "suspect":
					w.suspects++
					onSuspect(l.Peer, l.At, receipt)
				case "trust":
					w.trusts++
				}
			}
		}
	}()
}

func (w *watchClient) close() {
	w.cancel()
	w.resp.Body.Close()
}

// stop closes the connection and waits for the read loop.
func (w *watchClient) stop() {
	w.close()
	select {
	case <-w.done:
	case <-time.After(2 * time.Second):
	}
}
