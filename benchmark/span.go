package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Spans are recorded from the benchmark's side of each layer boundary —
// around the calls it makes into a layer, and between timestamps the
// layers already expose — kept in memory, and written out when the run
// ends. Spans inside the program are a later change.

type span struct {
	ID     int64  `json:"id"`               // shared by all spans of one victim; 0 for call spans
	Name   string `json:"name"`             // "<layer>.<what>"
	Start  int64  `json:"start_ns"`         // run clock
	End    int64  `json:"end_ns"`           //
	Parent int    `json:"parent,omitempty"` // 1-based index of the causing span; 0 = root
}

type spanRecorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its 1-based index, usable as a parent.
// A nil recorder (untraced run) records nothing.
func (r *spanRecorder) add(id int64, name string, start, end int64, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: id, Name: name, Start: start, End: end, Parent: parent})
	return len(r.spans)
}

// layerOf is the span name's layer prefix.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children counted
// once, children clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent > 0 && s.Parent <= len(spans) {
			p := spans[s.Parent-1]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		self := s.End - s.Start
		iv := children[i+1]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		reach = s.Start
		for _, c := range iv {
			if c[1] <= reach {
				continue
			}
			covered += c[1] - max(c[0], reach)
			reach = c[1]
		}
		out[i] = self - covered
	}
	return out
}

type layerSelf struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	SelfMs float64 `json:"self_ms"`
}

func selfByLayer(spans []span) []layerSelf {
	self := selfTimes(spans)
	agg := make(map[string]*layerSelf)
	for i, s := range spans {
		l := layerOf(s.Name)
		a := agg[l]
		if a == nil {
			a = &layerSelf{Layer: l}
			agg[l] = a
		}
		a.Spans++
		a.SelfMs += float64(self[i]) / 1e6
	}
	out := make([]layerSelf, 0, len(agg))
	for _, k := range sortedKeys(agg) {
		out = append(out, *agg[k])
	}
	return out
}

// outDir is where a run leaves its artefacts (ignored by git):
// benchmark/out, whether the program was started from the repository root
// (run.sh, the driver) or from benchmark/ itself (go run -C benchmark .).
func outDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Layers   []layerSelf        `json:"layer_self_time"`
	Metrics  map[string]float64 `json:"per_layer_metrics"`
	Spans    []span             `json:"spans"`
}

func writeTraceFile(workload string, tf traceFile) (string, error) {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir(), "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(tf)
	if err == nil {
		// To disk now, so that the write-back does not land in the next run.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
