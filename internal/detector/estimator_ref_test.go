package detector

import (
	"math"
	"testing"

	"repro/internal/clock"
	"repro/internal/trace"
	"repro/internal/window"
)

// refEstimator is the arrival estimator as it stood before the window was
// packed: (seq, recv) pairs in a plain ring, sums kept beside it. It is
// the reference the packed estimator must reproduce to the bit.
type refEstimator struct {
	interval clock.Duration
	win      *window.Ring[refArrival]
	sumRecv  int64
	sumSeq   int64
	lastSeq  uint64
	have     bool
}

type refArrival struct {
	seq  uint64
	recv clock.Time
}

func newRefEstimator(ws int, interval clock.Duration) *refEstimator {
	return &refEstimator{interval: interval, win: window.NewRing[refArrival](ws)}
}

func (e *refEstimator) Observe(seq uint64, recv clock.Time) {
	old, evicted := e.win.Push(refArrival{seq: seq, recv: recv})
	if evicted {
		e.sumRecv -= int64(old.recv)
		e.sumSeq -= int64(old.seq)
	}
	e.sumRecv += int64(recv)
	e.sumSeq += int64(seq)
	e.lastSeq, e.have = seq, true
}

func (e *refEstimator) Interval() clock.Duration {
	if e.interval > 0 {
		return e.interval
	}
	n := e.win.Len()
	if n < 2 {
		return 0
	}
	oldest, _ := e.win.Oldest()
	newest, _ := e.win.Newest()
	seqSpan := newest.seq - oldest.seq
	if seqSpan == 0 {
		return 0
	}
	return newest.recv.Sub(oldest.recv) / clock.Duration(seqSpan)
}

func (e *refEstimator) Expected() (clock.Time, bool) {
	n := e.win.Len()
	if !e.have || n == 0 {
		return 0, false
	}
	dt := e.Interval()
	if dt <= 0 {
		return 0, false
	}
	meanShift := float64(e.sumRecv)/float64(n) - float64(dt)*float64(e.sumSeq)/float64(n)
	ea := meanShift + float64(dt)*float64(e.lastSeq+1)
	return clock.Time(ea), true
}

// TestEstimatorBitIdenticalOnPresets drives the packed estimator beside
// the reference over every paper trace preset, at the paper's window and
// the benchmark's, with Δt configured and estimated, and requires EA and
// Δt to agree bit for bit after every arrival.
//
// Each preset runs three times, so that narrow, escaped and wide windows
// are all held to the reference. "as recorded" feeds the received
// heartbeats. The other two feed the first half on the preset's nominal
// schedule (every sequence number exactly Δt apart, so the window holds
// narrow words), then a late stretch, then the rest as recorded. In
// "escape" the stretch is one heartbeat a second late, which no narrow
// word holds: an escape. In "forced upgrade" it is 200 heartbeats, every
// other one a second late: more misfits than either window holds as
// escapes, so it upgrades.
func TestEstimatorBitIdenticalOnPresets(t *testing.T) {
	stretch := map[string]int{"as recorded": 0, "escape": 1, "forced upgrade": 200}
	for _, name := range trace.PresetNames() {
		gp, err := trace.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		recs := trace.Collect(gp.Meta, trace.NewGenerator(gp)).Records
		half := len(recs) / 2
		nominal := func(seq uint64) clock.Time {
			return recs[0].SendTime.Add(clock.Duration(seq) * gp.Meta.Interval)
		}
		for _, mode := range []string{"as recorded", "escape", "forced upgrade"} {
			for _, ws := range []int{DefaultWindowSize, 100} {
				for _, iv := range []clock.Duration{0, gp.Meta.Interval} {
					got, ref := NewArrivalEstimator(ws, iv), newRefEstimator(ws, iv)
					for i, r := range recs {
						recv := r.RecvTime
						switch {
						case mode == "as recorded" || i >= half+stretch[mode]:
							if r.Lost {
								continue
							}
						case i < half:
							recv = nominal(r.Seq)
						default:
							recv = nominal(r.Seq).Add(clock.Duration((i-half+1)%2) * clock.Second)
						}
						got.Observe(r.Seq, recv)
						ref.Observe(r.Seq, recv)
						ea, ok := got.Expected()
						rea, rok := ref.Expected()
						if ea != rea || ok != rok || got.Interval() != ref.Interval() || got.Full() != ref.win.Full() {
							t.Fatalf("%s %s ws=%d Δt=%v record %d: EA %d/%v Δt %v, reference EA %d/%v Δt %v",
								name, mode, ws, iv, i, ea, ok, got.Interval(), rea, rok, ref.Interval())
						}
					}
				}
			}
		}
	}
}

// TestEstimatorRestartsOnUnpackableDelta: a sequence jump too large for a
// packed word restarts the estimator at that arrival, exactly as an Import
// of that one sample would leave it.
func TestEstimatorRestartsOnUnpackableDelta(t *testing.T) {
	e := NewArrivalEstimator(8, 10*msD)
	for i := 0; i < 8; i++ {
		e.Observe(uint64(i), clock.Time(i)*clock.Time(10*msD))
	}
	jump := ArrivalSample{Seq: 7 + 1<<15, Recv: clock.Time(math.MaxInt64 / 2)}
	e.Observe(jump.Seq, jump.Recv)

	want := NewArrivalEstimator(8, 10*msD)
	want.Import([]ArrivalSample{jump})
	gea, gok := e.Expected()
	wea, wok := want.Expected()
	if e.Len() != 1 || gea != wea || gok != wok {
		t.Fatalf("after jump: len %d EA %v/%v, want len 1 EA %v/%v", e.Len(), gea, gok, wea, wok)
	}
}
