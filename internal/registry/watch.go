package registry

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"
)

// Streaming watch endpoint: GET /watch?filter=eu/%23 holds the
// connection open and streams matching failure-bus events as NDJSON
// (one JSON object per line, flushed once per drain). This is the
// push-based counterpart of polling /status — a narrow watcher taps
// the interest-routed topic trie instead of snapshotting 100k streams.
//
// Each time an event arrives the writer drains what else is already
// queued on the subscription, without blocking, up to watchWriteCap bytes
// of lines or the max count, and sends the lot with one Write and one
// Flush: a 100-event rack burst is one write, not 100, while a lone event
// still goes out at once. Event lines are append-encoded into one reused
// buffer (appendWatchEvent), byte for byte what encoding/json writes for
// them; only where the stream is cut into chunks depends on timing.
//
// Query parameters:
//
//	filter     topic filter (`+`/`#` wildcards; default "#" = everything)
//	buf        subscription channel capacity (default 256)
//	heartbeat  keepalive period while idle (Go duration; default 5s)
//	max        close after this many events (default 0 = stream forever)
//
// The stream opens with a hello line carrying the subscription id, then
// interleaves event lines with heartbeat lines. Heartbeats double as
// per-connection drop accounting: a consumer that reads too slowly sees
// its own `dropped` counter climb (drop-oldest backpressure at the bus,
// see Bus). When `max` is reached a final summary line is written and
// the connection closes — handy for curl demos and tests.
const (
	watchDefaultBuf       = 256
	watchDefaultHeartbeat = 5 * time.Second
	// watchWriteCap bounds one drain: the writer stops taking queued
	// events once its lines reach this many bytes, so a deep backlog goes
	// out in writes of about this size.
	watchWriteCap = 32 << 10
)

// watchHelloJSON is the first line of a /watch stream.
type watchHelloJSON struct {
	Watching string `json:"watching"`
	ID       uint64 `json:"subscription_id"`
	Buffer   int    `json:"buffer"`
}

// watchHeartbeatJSON is an idle-period keepalive with this connection's
// delivery accounting so far.
type watchHeartbeatJSON struct {
	Heartbeat bool   `json:"heartbeat"`
	NowNs     int64  `json:"now_ns"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	Queued    int    `json:"queued"`
}

// watchDoneJSON closes a max-bounded stream.
type watchDoneJSON struct {
	Done      bool   `json:"done"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
}

// watchRetryAfterSeconds is the Retry-After hint sent with a 503 when
// WatchMaxConns is saturated.
const watchRetryAfterSeconds = 5

func (r *Registry) serveWatch(w http.ResponseWriter, req *http.Request) {
	if max := int64(r.opts.WatchMaxConns); max > 0 {
		if n := r.watchConns.Add(1); n > max {
			r.watchConns.Add(-1)
			r.watchRejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(watchRetryAfterSeconds))
			http.Error(w, "watch: connection limit reached", http.StatusServiceUnavailable)
			return
		}
		defer r.watchConns.Add(-1)
	}
	q := req.URL.Query()
	filter := q.Get("filter")
	if filter == "" {
		filter = "#"
	}
	buf := watchDefaultBuf
	if s := q.Get("buf"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			http.Error(w, "watch: buf must be a positive integer", http.StatusBadRequest)
			return
		}
		buf = n
	}
	hb := watchDefaultHeartbeat
	if s := q.Get("heartbeat"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			http.Error(w, "watch: heartbeat must be a positive duration", http.StatusBadRequest)
			return
		}
		hb = d
	}
	max := 0
	if s := q.Get("max"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "watch: max must be a non-negative integer", http.StatusBadRequest)
			return
		}
		max = n
	}

	sub, err := r.bus.SubscribeTopic(filter, buf)
	if err != nil {
		http.Error(w, "watch: "+err.Error(), http.StatusBadRequest)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	// Tell buffering reverse proxies to pass chunks through unmodified.
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	flusher, _ := w.(http.Flusher)
	var out []byte // the lines of one write, reused
	write := func() bool {
		if _, err := w.Write(out); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	out = appendJSONLine(out, watchHelloJSON{Watching: filter, ID: sub.ID(), Buffer: buf})
	if !write() {
		return
	}

	ctx := req.Context()
	keepalive := r.clk.After(hb)
	sent := 0
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-sub.C():
			if !ok {
				return
			}
			// max−sent ≥ 1 bounds the drain when max is set; with max 0 it
			// is ≤ 0, no bound.
			var n int
			var finite bool
			out, n, finite = drainWatch(out[:0], ev, sub.C(), max-sent)
			sent += n
			done := max > 0 && sent >= max
			if done {
				st := sub.Stats()
				out = appendJSONLine(out, watchDoneJSON{Done: true, Delivered: st.Delivered, Dropped: st.Dropped})
			}
			if !write() || !finite || done {
				return
			}
		case now := <-keepalive:
			st := sub.Stats()
			out = appendJSONLine(out[:0], watchHeartbeatJSON{
				Heartbeat: true,
				NowNs:     int64(now),
				Delivered: st.Delivered,
				Dropped:   st.Dropped,
				Queued:    st.Queued,
			})
			if !write() {
				return
			}
			keepalive = r.clk.After(hb)
		}
	}
}

// drainWatch appends ev's line to out, then the line of every event
// already queued on c, without blocking, until the lines reach
// watchWriteCap bytes or limit events have been taken (limit ≤ 0: no
// count bound). It takes nothing past limit: an event taken off the
// subscription and not written would be lost. It returns false if an
// event has a non-finite Suspicion, which JSON cannot carry and which
// ends the stream: out then holds the lines before it.
func drainWatch(out []byte, ev Event, c <-chan Event, limit int) ([]byte, int, bool) {
	for taken := 0; ; {
		var ok bool
		if out, ok = appendWatchEvent(out, ev); !ok {
			return out, taken, false
		}
		taken++
		if taken == limit || len(out) >= watchWriteCap {
			return out, taken, true
		}
		select {
		case ev, ok = <-c:
			if !ok {
				return out, taken, true
			}
		default:
			return out, taken, true
		}
	}
}

// appendJSONLine appends v's NDJSON line as json.Encoder writes it, for
// the rare hello, keepalive and done lines.
func appendJSONLine(b []byte, v any) []byte {
	j, _ := json.Marshal(v) // cannot fail: structs of strings, bools and integers
	return append(append(b, j...), '\n')
}

// appendWatchEvent appends ev's NDJSON line to b: exactly the bytes
// json.Encoder (HTML escaping on, its default) writes for
//
//	{"event", "peer", "at_ns", "suspicion,omitempty",
//	 "incarnation,omitempty", "source,omitempty", "detail,omitempty"}
//
// holding ev.Type.String(), ev.Peer, ev.At, and the rest of ev, without
// reflection or allocation. It returns b unchanged and false for a NaN or
// infinite Suspicion, which encoding/json rejects too.
func appendWatchEvent(b []byte, ev Event) ([]byte, bool) {
	if math.IsNaN(ev.Suspicion) || math.IsInf(ev.Suspicion, 0) {
		return b, false
	}
	b = append(b, `{"event":`...)
	b = appendJSONString(b, ev.Type.String())
	b = append(b, `,"peer":`...)
	b = appendJSONString(b, ev.Peer)
	b = append(b, `,"at_ns":`...)
	b = strconv.AppendInt(b, int64(ev.At), 10)
	if ev.Suspicion != 0 {
		b = append(b, `,"suspicion":`...)
		b = appendJSONFloat(b, ev.Suspicion)
	}
	if ev.Incarnation != 0 {
		b = append(b, `,"incarnation":`...)
		b = strconv.AppendUint(b, ev.Incarnation, 10)
	}
	if src := ev.Source(); src != "" {
		b = append(b, `,"source":`...)
		b = appendJSONString(b, src)
	}
	if d := ev.Detail(); d != "" {
		b = append(b, `,"detail":`...)
		b = appendJSONString(b, d)
	}
	return append(b, '}', '\n'), true
}

// appendJSONFloat appends a finite f as encoding/json does: like %g, but
// in 'e' notation only below 1e-6 or from 1e21 in magnitude, and with a
// one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends s as a quoted JSON string the way
// encoding/json does with HTML escaping on: `"` and `\` backslashed, the
// control bytes as \b \f \n \r \t or \u00XX, `<` `>` `&` as \u003c
// \u003e \u0026, each byte of invalid UTF-8 as \ufffd, and U+2028 and
// U+2029 as \u2028 and \u2029. Runs of other bytes are copied whole.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
