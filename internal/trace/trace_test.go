package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

func genTrace(t *testing.T, name string, count int) *Trace {
	t.Helper()
	gp, err := Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	gp.Count = count
	tr := Collect(gp.Meta, NewGenerator(gp))
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	return tr
}

func TestRecordDelay(t *testing.T) {
	r := Record{SendTime: 100, RecvTime: 350}
	if r.Delay() != 250 {
		t.Fatalf("Delay = %v", r.Delay())
	}
}

func TestPresetNamesOrderAndCompleteness(t *testing.T) {
	names := PresetNames()
	if len(names) != 7 {
		t.Fatalf("want 7 presets, got %d: %v", len(names), names)
	}
	if names[0] != "WAN-JPCH" {
		t.Fatalf("first preset = %q, want WAN-JPCH", names[0])
	}
	for i := 1; i <= 6; i++ {
		want := "WAN-" + string(rune('0'+i))
		if names[i] != want {
			t.Fatalf("names[%d] = %q, want %q", i, names[i], want)
		}
	}
}

func TestPresetUnknown(t *testing.T) {
	if _, err := Preset("WAN-99"); err == nil {
		t.Fatal("unknown preset should error")
	}
}

func TestPaperCountsCoverAllPresets(t *testing.T) {
	for _, n := range PresetNames() {
		if PaperCounts[n] < 5_000_000 {
			t.Errorf("PaperCounts[%s] = %d, implausible", n, PaperCounts[n])
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	gp, _ := Preset("WAN-1")
	gp.Count = 5000
	a := Collect(gp.Meta, NewGenerator(gp))
	b := Collect(gp.Meta, NewGenerator(gp))
	if len(a.Records) != len(b.Records) {
		t.Fatal("lengths differ")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
	}
}

func TestGeneratorSeedChangesTrace(t *testing.T) {
	gp, _ := Preset("WAN-1")
	gp.Count = 1000
	a := Collect(gp.Meta, NewGenerator(gp))
	gp.Seed++
	b := Collect(gp.Meta, NewGenerator(gp))
	same := true
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestGeneratorCount: Collect over a generator yields exactly the
// records an unsized Next drain of the same generator would, including
// a negative Count and a generator already drained part-way.
func TestGeneratorCount(t *testing.T) {
	cases := []struct {
		count, drained int // drained: records taken by Next before Collect
		want           int
	}{
		{0, 0, 0},
		{1, 0, 1},
		{17, 0, 17},
		{1000, 0, 1000},
		{-5, 0, 0},
		{1000, 400, 600},
		{17, 17, 0},
	}
	for _, c := range cases {
		gp, _ := Preset("WAN-2")
		gp.Count = c.count
		g, ref := NewGenerator(gp), NewGenerator(gp)
		for i := 0; i < c.drained; i++ {
			g.Next()
			ref.Next()
		}
		tr := Collect(gp.Meta, g)
		if tr.Len() != c.want {
			t.Fatalf("Count=%d drained %d: produced %d records, want %d", c.count, c.drained, tr.Len(), c.want)
		}
		for i := 0; ; i++ {
			r, ok := ref.Next()
			if !ok {
				if i != tr.Len() {
					t.Fatalf("Count=%d drained %d: Next drain ends at %d, Collect at %d", c.count, c.drained, i, tr.Len())
				}
				break
			}
			if i >= tr.Len() || tr.Records[i] != r {
				t.Fatalf("Count=%d drained %d: record %d differs from the Next drain", c.count, c.drained, i)
			}
		}
	}
}

// generatorGolden pins the SHA-256 of each preset's first 100 000
// records (Seq, SendTime, RecvTime, Lost, little-endian), so a change to
// the generator's arithmetic or draw order fails here, not only in the
// benchmark module's replay golden. Pinned on amd64, as that golden is:
// math.Pow and fused multiply-adds may round differently elsewhere.
var generatorGolden = map[string]string{
	"WAN-JPCH": "859577da1992efc8e3026afd0dd046fe8f1e67d804e3e04550334f43ea9f4a4a",
	"WAN-1":    "2fa24657b81ed1003c694288191f6d65a5eb99b205c0732ee859478ad401cd7b",
	"WAN-2":    "584b746da26052076c94d4ea687f8069b3b4a5fd7190ca4082059e11cbd489bb",
	"WAN-3":    "8f3b9f02563f5f55006e4c990d094db1cd99a035b3e7a2a0177f0df99563e300",
	"WAN-4":    "a79814bcbf3ed37fc75b7a845695f7e49204cfdc0de5df24328aeaf7c774ebd4",
	"WAN-5":    "a581f2310e64d711f61fa8b30a7204d971fb2b9e4eded75913feafaad29f71e9",
	"WAN-6":    "378791c87843f20ea5fa4f2d7535ff574eeb4a25005bee4acc92e0c71026a2a5",
}

func TestGeneratorGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("generator hashes are pinned on amd64, not %s", runtime.GOARCH)
	}
	got := map[string]string{}
	for _, name := range PresetNames() {
		gp, _ := Preset(name)
		gp.Count = 100_000
		h := sha256.New()
		var buf [25]byte
		for _, r := range Collect(gp.Meta, NewGenerator(gp)).Records {
			binary.LittleEndian.PutUint64(buf[0:], r.Seq)
			binary.LittleEndian.PutUint64(buf[8:], uint64(r.SendTime))
			binary.LittleEndian.PutUint64(buf[16:], uint64(r.RecvTime))
			buf[24] = 0
			if r.Lost {
				buf[24] = 1
			}
			h.Write(buf[:])
		}
		got[name] = hex.EncodeToString(h.Sum(nil))
	}
	drift := false
	for _, name := range PresetNames() {
		if got[name] != generatorGolden[name] {
			t.Errorf("%s: records hash %s, pinned %s", name, got[name], generatorGolden[name])
			drift = true
		}
	}
	if drift {
		var b strings.Builder
		for _, name := range PresetNames() {
			fmt.Fprintf(&b, "\t%q: %q,\n", name, got[name])
		}
		t.Logf("new table:\n%s", b.String())
	}
}

func TestGeneratorFIFOAndValidity(t *testing.T) {
	for _, name := range PresetNames() {
		tr := genTrace(t, name, 20000)
		var prevRecv clock.Time = -1
		for i, r := range tr.Records {
			if r.Lost {
				continue
			}
			if r.RecvTime <= prevRecv {
				t.Fatalf("%s: record %d delivered out of order", name, i)
			}
			if r.RecvTime < r.SendTime {
				t.Fatalf("%s: record %d received before sent", name, i)
			}
			prevRecv = r.RecvTime
		}
	}
}

func TestGeneratorMatchesTableII(t *testing.T) {
	// Statistical reproduction of Table II: generated traces must land
	// near the paper's reported numbers. Tolerances are loose enough for
	// 100k-heartbeat samples yet tight enough to catch calibration bugs.
	cases := []struct {
		name              string
		lossRate          float64 // paper value
		sendMeanMS, rttMS float64
	}{
		{"WAN-1", 0.00, 12.825, 193.909},
		{"WAN-2", 0.05, 12.176, 194.959},
		{"WAN-3", 0.02, 12.21, 189.44},
		{"WAN-4", 0.00, 12.337, 172.863},
		{"WAN-5", 0.04, 12.367, 362.423},
		{"WAN-6", 0.00, 12.33, 78.52},
	}
	for _, c := range cases {
		gp, _ := Preset(c.name)
		gp.Count = 100_000
		st := Analyze(c.name, NewGenerator(gp))
		if math.Abs(st.LossRate-c.lossRate) > 0.01+0.3*c.lossRate {
			t.Errorf("%s: loss = %.4f, paper %.4f", c.name, st.LossRate, c.lossRate)
		}
		if math.Abs(st.SendMeanMS-c.sendMeanMS) > 0.15*c.sendMeanMS {
			t.Errorf("%s: send mean = %.3f ms, paper %.3f ms", c.name, st.SendMeanMS, c.sendMeanMS)
		}
		if math.Abs(st.RTTMeanMS-c.rttMS) > 0.15*c.rttMS {
			t.Errorf("%s: RTT = %.3f ms, paper %.3f ms", c.name, st.RTTMeanMS, c.rttMS)
		}
	}
}

func TestGeneratorJPCHCharacteristics(t *testing.T) {
	gp, _ := Preset("WAN-JPCH")
	gp.Count = 150_000
	st := Analyze("WAN-JPCH", NewGenerator(gp))
	if math.Abs(st.SendMeanMS-103.501) > 2 {
		t.Errorf("send mean = %.3f, want ≈103.5", st.SendMeanMS)
	}
	if st.LossRate < 0.001 || st.LossRate > 0.012 {
		t.Errorf("loss = %.4f, want ≈0.004", st.LossRate)
	}
	if st.LossBursts == 0 {
		t.Error("expected bursty losses")
	}
	if st.MeanBurstLen < 2 {
		t.Errorf("mean burst = %.1f, want bursty (>2)", st.MeanBurstLen)
	}
	if math.Abs(st.RTTMeanMS-283.338) > 30 {
		t.Errorf("RTT = %.3f, want ≈283", st.RTTMeanMS)
	}
	if st.RTTMinMS < 250 {
		t.Errorf("RTT min = %.3f, want ≥ ~270 (base delay floor)", st.RTTMinMS)
	}
}

func TestGeneratorBurstiness(t *testing.T) {
	// With MeanBurst ≫ 1 the mean observed burst length must exceed the
	// Bernoulli expectation (≈ 1/(1−p)).
	gp, _ := Preset("WAN-2") // 5% loss, mean burst 6
	gp.Count = 200_000
	st := Analyze("WAN-2", NewGenerator(gp))
	if st.MeanBurstLen < 2 {
		t.Fatalf("mean burst = %.2f, want > 2 for Gilbert–Elliott", st.MeanBurstLen)
	}
}

func TestGeneratorOutage(t *testing.T) {
	gp := GenParams{
		Meta:         Meta{Name: "outage"},
		Count:        10_000,
		Seed:         7,
		IntervalMean: 10 * clock.Millisecond,
		DelayBase:    clock.Millisecond,
		OutageProb:   0.001,
		OutageMaxLen: 200,
	}
	st := Analyze("outage", NewGenerator(gp))
	if st.LossBursts == 0 {
		t.Fatal("outage injection produced no loss bursts")
	}
	if st.MaxBurstLen < 5 {
		t.Fatalf("max burst = %d, expected long outages", st.MaxBurstLen)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := genTrace(t, "WAN-1", 100)
	cases := map[string]func(*Trace){
		"dup seq":       func(tr *Trace) { tr.Records[5].Seq = tr.Records[4].Seq },
		"send backward": func(tr *Trace) { tr.Records[5].SendTime = tr.Records[4].SendTime - 10 },
		"recv < send":   func(tr *Trace) { tr.Records[5].RecvTime = tr.Records[5].SendTime - 1; tr.Records[5].Lost = false },
	}
	for name, corrupt := range cases {
		tr := &Trace{Meta: good.Meta, Records: append([]Record(nil), good.Records...)}
		corrupt(tr)
		if tr.Validate() == nil {
			t.Errorf("%s: Validate accepted corrupted trace", name)
		}
	}
}

func TestLimitStream(t *testing.T) {
	tr := genTrace(t, "WAN-1", 100)
	lim := &Limit{S: tr.Stream(), N: 30}
	n := 0
	for {
		if _, ok := lim.Next(); !ok {
			break
		}
		n++
	}
	if n != 30 {
		t.Fatalf("Limit yielded %d, want 30", n)
	}
	// Limit longer than stream just drains it.
	lim = &Limit{S: tr.Stream(), N: 500}
	n = 0
	for {
		if _, ok := lim.Next(); !ok {
			break
		}
		n++
	}
	if n != 100 {
		t.Fatalf("Limit yielded %d, want 100", n)
	}
}

func TestCursorReset(t *testing.T) {
	tr := genTrace(t, "WAN-1", 10)
	c := NewCursor(tr)
	first, _ := c.Next()
	for {
		if _, ok := c.Next(); !ok {
			break
		}
	}
	c.Reset()
	again, ok := c.Next()
	if !ok || again != first {
		t.Fatal("Reset did not rewind")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := genTrace(t, "WAN-JPCH", 5000)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != tr.Meta {
		t.Fatalf("meta mismatch: %+v vs %+v", got.Meta, tr.Meta)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatal("record count mismatch")
	}
	for i := range tr.Records {
		a, b := tr.Records[i], got.Records[i]
		if a.Seq != b.Seq || a.SendTime != b.SendTime || a.Lost != b.Lost {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, a, b)
		}
		if !a.Lost && a.RecvTime != b.RecvTime {
			t.Fatalf("record %d recv mismatch", i)
		}
	}
}

func TestBinaryCompactness(t *testing.T) {
	tr := genTrace(t, "WAN-1", 10000)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	perRecord := float64(buf.Len()) / float64(tr.Len())
	if perRecord > 12 {
		t.Fatalf("binary encoding uses %.1f bytes/record, want ≤ 12", perRecord)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace file at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(bytes.NewReader([]byte{'H', 'B'})); err == nil {
		t.Fatal("truncated magic accepted")
	}
	// Valid magic, bad version.
	var buf bytes.Buffer
	buf.Write(traceMagic[:])
	buf.WriteByte(99)
	if _, err := Read(&buf); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestBinaryTruncatedBody(t *testing.T) {
	tr := genTrace(t, "WAN-1", 100)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestWriteStreamRoundTrip(t *testing.T) {
	gp, _ := Preset("WAN-2")
	gp.Count = 3000
	var buf bytes.Buffer
	n, err := WriteStream(&buf, gp.Meta, NewGenerator(gp))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3000 {
		t.Fatalf("wrote %d records", n)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != gp.Meta || len(got.Records) != 3000 {
		t.Fatalf("stream round trip: meta=%+v len=%d", got.Meta, len(got.Records))
	}
	// Byte-identical records vs the materialized path.
	want := Collect(gp.Meta, NewGenerator(gp))
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestWriteStreamEmpty(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteStream(&buf, Meta{Name: "empty"}, NewCursor(&Trace{}))
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	got, err := Read(&buf)
	if err != nil || len(got.Records) != 0 || got.Meta.Name != "empty" {
		t.Fatalf("empty stream round trip failed: %v", err)
	}
}

func TestWriteStreamTruncatedRejected(t *testing.T) {
	gp, _ := Preset("WAN-1")
	gp.Count = 100
	var buf bytes.Buffer
	if _, err := WriteStream(&buf, gp.Meta, NewGenerator(gp)); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3] // drop the end marker + tail
	if _, err := Read(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := genTrace(t, "WAN-3", 500)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != tr.Meta {
		t.Fatalf("meta mismatch: %+v vs %+v", got.Meta, tr.Meta)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatal("record count mismatch")
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] && !(tr.Records[i].Lost && got.Records[i].Lost &&
			got.Records[i].Seq == tr.Records[i].Seq && got.Records[i].SendTime == tr.Records[i].SendTime) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(bytes.NewReader([]byte("a,b\n1,2\n"))); err == nil {
		t.Fatal("garbage CSV accepted")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	// Property: any structurally valid record sequence survives the
	// binary codec bit-exactly.
	f := func(deltas []uint16, lostBits []bool) bool {
		tr := &Trace{Meta: Meta{Name: "prop"}}
		var send clock.Time
		for i, d := range deltas {
			send += clock.Time(d) + 1
			rec := Record{Seq: uint64(i), SendTime: send}
			if i < len(lostBits) && lostBits[i] {
				rec.Lost = true
			} else {
				rec.RecvTime = send + clock.Time(d%97)
			}
			tr.Records = append(tr.Records, rec)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got.Records) != len(tr.Records) {
			return false
		}
		for i := range tr.Records {
			if got.Records[i] != tr.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeEmptyAndTiny(t *testing.T) {
	st := Analyze("empty", NewCursor(&Trace{}))
	if st.Total != 0 || st.LossRate != 0 {
		t.Fatal("empty trace stats nonzero")
	}
	one := &Trace{Records: []Record{{Seq: 0, SendTime: 0, RecvTime: 10}}}
	st = Analyze("one", NewCursor(one))
	if st.Total != 1 || st.Received != 1 {
		t.Fatal("single-record stats wrong")
	}
}

func TestAnalyzeTrailingBurstCounted(t *testing.T) {
	tr := &Trace{Records: []Record{
		{Seq: 0, SendTime: 0, RecvTime: 5},
		{Seq: 1, SendTime: 10, Lost: true},
		{Seq: 2, SendTime: 20, Lost: true},
	}}
	st := Analyze("tail", NewCursor(tr))
	if st.LossBursts != 1 || st.MaxBurstLen != 2 {
		t.Fatalf("trailing burst not counted: %+v", st)
	}
}

func TestTableRowFormatting(t *testing.T) {
	st := Stats{Name: "WAN-1", Total: 100, LossRate: 0.05, SendMeanMS: 12.8}
	row := st.TableRow()
	if len(row) == 0 || len(TableHeader()) == 0 {
		t.Fatal("empty table output")
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	gp, _ := Preset("WAN-1")
	gp.Count = b.N
	g := NewGenerator(gp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkCollect materializes 100 000 WAN-1 records. A generator's
// trace is sized once, so this reports 2 allocs/op (the Trace and its
// Records array); CI gates that at -benchtime 100x, where the runtime's
// handful of allocations per benchmark run rounds away.
func BenchmarkCollect(b *testing.B) {
	gp, _ := Preset("WAN-1")
	gp.Count = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := NewGenerator(gp)
		b.StartTimer()
		collectSink = Collect(gp.Meta, g)
	}
}

var collectSink *Trace
