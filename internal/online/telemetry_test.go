package online

import (
	"bytes"
	"strings"
	"testing"

	"adiv/internal/detector"
	"adiv/internal/detector/stide"
	"adiv/internal/detector/tstide"
	"adiv/internal/obs"
	"adiv/internal/seq"
)

// vetoTrainStream is the pipeline fixture stream: a 0 1 2 3 cycle with one
// rare "0 3" burst, so t-stide alarms on both rare and foreign pairs while
// stide alarms on foreign only.
func vetoTrainStream() seq.Stream {
	var train seq.Stream
	for i := 0; i < 200; i++ {
		train = append(train, 0, 1, 2, 3)
	}
	train = append(train, 0, 3)
	for i := 0; i < 200; i++ {
		train = append(train, 0, 1, 2, 3)
	}
	return train
}

func trainedVetoPipeline(t *testing.T) *VetoPipeline {
	t.Helper()
	primary, err := tstide.New(2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	veto, err := stide.New(2)
	if err != nil {
		t.Fatal(err)
	}
	train := vetoTrainStream()
	if err := primary.Train(train); err != nil {
		t.Fatal(err)
	}
	if err := veto.Train(train); err != nil {
		t.Fatal(err)
	}
	pipe, err := NewVetoPipeline(primary, veto, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

// vetoTestStream exercises all three dispositions: (0,3) is rare-but-seen
// (primary only → suppressed), (3,1) and (1,1) are foreign (both detectors
// → escalated).
func vetoTestStream() seq.Stream {
	return mk(0, 1, 2, 3, 0, 3, 0, 1, 2, 3, 1, 1, 2, 3,
		0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3)
}

// TestVetoPipelineNilMetrics pins the never-instrumented path: a pipeline
// on which Instrument was never called pushes through all-nil telemetry
// handles without panicking and produces the same escalations.
func TestVetoPipelineNilMetrics(t *testing.T) {
	pipe := trainedVetoPipeline(t)
	escalated, err := pipe.PushAll(vetoTestStream())
	if err != nil {
		t.Fatal(err)
	}
	if len(escalated) != 2 {
		t.Fatalf("%d escalations, want 2: %+v", len(escalated), escalated)
	}
	if pipe.Suppressed() != 1 {
		t.Errorf("suppressed = %d, want 1", pipe.Suppressed())
	}
	// Explicit detach is also a supported no-op path.
	pipe2 := trainedVetoPipeline(t)
	pipe2.Instrument(obs.New())
	pipe2.Instrument(nil)
	pipe2.SetJournal(nil)
	if _, err := pipe2.PushAll(vetoTestStream()); err != nil {
		t.Fatal(err)
	}
}

// TestVetoPipelineJournalDispositions: the journal carries the full
// disposition history — the primary's raised records plus the pipeline's
// escalated/suppressed resolutions — and the accounting ties out against
// the pipeline's own counters.
func TestVetoPipelineJournalDispositions(t *testing.T) {
	pipe := trainedVetoPipeline(t)
	reg := obs.New()
	pipe.Instrument(reg)
	var buf bytes.Buffer
	j := obs.NewAlertJournal(&buf)
	pipe.SetJournal(j)

	escalated, err := pipe.PushAll(vetoTestStream())
	if err != nil {
		t.Fatal(err)
	}
	if len(escalated) != 2 {
		t.Fatalf("%d escalations, want 2", len(escalated))
	}

	recs, err := obs.ReadAlerts(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	byDisp := map[string][]obs.AlertRecord{}
	for _, rec := range recs {
		if rec.Detector != "tstide" {
			t.Errorf("journaled detector = %q, want tstide (veto must not journal)", rec.Detector)
		}
		if rec.Threshold != 1 {
			t.Errorf("journaled threshold = %v, want 1", rec.Threshold)
		}
		byDisp[rec.Disposition] = append(byDisp[rec.Disposition], rec)
	}
	raised := len(byDisp[obs.DispositionRaised])
	esc := len(byDisp[obs.DispositionEscalated])
	sup := len(byDisp[obs.DispositionSuppressed])
	if esc != 2 || sup != pipe.Suppressed() {
		t.Errorf("journal: %d escalated (want 2), %d suppressed (want %d)", esc, sup, pipe.Suppressed())
	}
	// raised = escalated + suppressed + pending.
	pending := raised - esc - sup
	if pending < 0 {
		t.Errorf("disposition accounting broken: raised %d < escalated %d + suppressed %d", raised, esc, sup)
	}
	if got := reg.Counter("online/pipeline/primary_alarms").Value(); got != int64(raised) {
		t.Errorf("primary_alarms counter = %d, journal raised = %d", got, raised)
	}
	// Escalated records carry the escalated alarms' positions and scores.
	wantPos := map[int]bool{}
	for _, e := range escalated {
		wantPos[e.Primary.Position] = true
	}
	for _, rec := range byDisp[obs.DispositionEscalated] {
		if !wantPos[rec.Position] {
			t.Errorf("escalated journal position %d not in %v", rec.Position, wantPos)
		}
		if rec.Score < 1 {
			t.Errorf("escalated record score = %v, want >= threshold 1", rec.Score)
		}
	}
	// The journal's dispositions double as watchdog/diagnose input: the
	// offline analysis must see the same split.
	rep := obs.AnalyzeAlerts(recs, obs.AlertAnalysisOptions{})
	if len(rep.Families) != 1 || rep.Families[0].Detector != "tstide" {
		t.Fatalf("families = %+v", rep.Families)
	}
	f := rep.Families[0]
	if f.Raised != raised || f.Escalated != esc || f.Suppressed != sup || f.Pending != pending {
		t.Errorf("analysis = %+v, want raised %d escalated %d suppressed %d pending %d",
			f, raised, esc, sup, pending)
	}
}

// TestVetoPipelineResetResolvesPending: Reset ends the stream, so a
// candidate still awaiting corroboration is journaled as suppressed under
// the old tenant and counted, and the recycled pipeline starts clean.
func TestVetoPipelineResetResolvesPending(t *testing.T) {
	// Primary window 3 (extent 2) alarms at the fifth push; the veto never
	// does, and five pushes stay inside the expiry horizon.
	const n = 5
	pipe, err := NewVetoPipeline(cannedAt("p", 2, n, 3), cannedAt("v", 2, n), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	pipe.Instrument(reg)
	var buf bytes.Buffer
	pipe.SetJournal(obs.NewAlertJournal(&buf))
	pipe.SetTenant("old")
	for round := 1; round <= 2; round++ {
		if esc, err := pipe.PushAll(make(seq.Stream, n)); err != nil || len(esc) != 0 {
			t.Fatalf("round %d: escalated %+v, err %v", round, esc, err)
		}
		if got := pipe.Suppressed(); got != 0 {
			t.Fatalf("round %d: Suppressed() = %d before Reset, want 0 (candidate pending)", round, got)
		}
		pipe.Reset()
		if got := pipe.Suppressed(); got != 0 {
			t.Errorf("round %d: Suppressed() = %d after Reset, want 0", round, got)
		}
		if got := reg.Counter("online/pipeline/suppressed").Value(); got != int64(round) {
			t.Errorf("round %d: suppressed counter = %d, want %d", round, got, round)
		}
	}
	recs, err := obs.ReadAlerts(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rec := range recs {
		if rec.Tenant != "old" || rec.Position != 3 {
			t.Errorf("record %+v, want tenant old at position 3", rec)
		}
		got = append(got, rec.Disposition)
	}
	want := []string{obs.DispositionRaised, obs.DispositionSuppressed, obs.DispositionRaised, obs.DispositionSuppressed}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("journal dispositions %v, want %v", got, want)
	}
}

// TestScorerFamilyTelemetry pins the per-family sketch/counter names the
// streaming layer registers and their consistency with the shared metrics.
func TestScorerFamilyTelemetry(t *testing.T) {
	det := trained(t, func() (detector.Detector, error) { return stide.New(2) })
	alarmer, err := NewAlarmer(det, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	alarmer.Instrument(reg)
	// Foreign pairs: (3,1) at window 3, (1,1) at 4, then (3,3) at 7 and 8 —
	// alarm positions 3, 4, 7, 8, inter-arrival gaps 1, 3, 1.
	if _, err := alarmer.PushAll(mk(0, 1, 2, 3, 1, 1, 2, 3, 3, 3)); err != nil {
		t.Fatal(err)
	}
	snaps := reg.SketchSnapshots()
	// push_latency is observed once per push call: one PushAll, one
	// observation, however many symbols it carried.
	lat, ok := snaps["online/push_latency/stide"]
	if !ok || lat.Count != 1 {
		t.Errorf("push latency sketch = %+v", lat)
	}
	if lat.Count > 0 && (lat.P50 < 0 || lat.Max <= 0) {
		t.Errorf("push latency stats = %+v", lat)
	}
	respQ, ok := snaps["online/responses_q/stide"]
	if !ok || respQ.Count != 9 {
		t.Errorf("responses_q sketch = %+v (9 completed windows expected)", respQ)
	}
	if got := reg.Counter("online/responses/stide").Value(); got != 9 {
		t.Errorf("online/responses/stide = %d, want 9", got)
	}
	// Responses are recorded once, into the per-family sketch: no
	// unlabelled online/responses distribution exists beside it.
	var snapJSON bytes.Buffer
	if err := reg.WriteSnapshot(&snapJSON); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(snapJSON.String(), `"online/responses"`) {
		t.Errorf("snapshot records an unlabelled online/responses distribution:\n%s", snapJSON.String())
	}
	if got := reg.Counter("online/alarms/stide").Value(); got != 4 {
		t.Errorf("online/alarms/stide = %d, want 4", got)
	}
	ia, ok := snaps["online/alarm_interarrival/stide"]
	if !ok || ia.Count != 3 {
		t.Fatalf("inter-arrival sketch = %+v (gaps 1, 3, 1 expected)", ia)
	}
	if ia.Min != 1 || ia.Max != 3 {
		t.Errorf("inter-arrival extremes = %+v, want min 1 max 3", ia)
	}
	// The per-family counter totals match the shared ones.
	if shared, fam := reg.Counter("online/alarms").Value(), reg.Counter("online/alarms/stide").Value(); shared != fam {
		t.Errorf("shared alarms %d != family alarms %d", shared, fam)
	}
}

// TestAlarmerJournalRaised: a bare Alarmer (no pipeline) journals raised
// records with its own family and threshold.
func TestAlarmerJournalRaised(t *testing.T) {
	det := trained(t, func() (detector.Detector, error) { return stide.New(2) })
	alarmer, err := NewAlarmer(det, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	alarmer.SetJournal(obs.NewAlertJournal(&buf))
	alarms, err := alarmer.PushAll(mk(0, 1, 2, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) != 1 {
		t.Fatalf("%d alarms, want 1", len(alarms))
	}
	raw := buf.String()
	recs, err := obs.ReadAlerts(strings.NewReader(raw))
	if err != nil || len(recs) != 1 {
		t.Fatalf("journal: %d recs, err %v", len(recs), err)
	}
	rec := recs[0]
	if rec.Detector != "stide" || rec.Disposition != obs.DispositionRaised ||
		rec.Position != alarms[0].Position || rec.Score != alarms[0].Response || rec.Threshold != 0.75 {
		t.Errorf("journal record = %+v, alarm = %+v", rec, alarms[0])
	}
	if !strings.Contains(raw, `"schema":"adiv.alerts/v1"`) {
		t.Errorf("journal line missing schema: %s", raw)
	}
}

// TestPipelinePushLatencySketch: instrumenting the pipeline registers the
// whole-pipeline latency sketch and it observes one value per push.
func TestPipelinePushLatencySketch(t *testing.T) {
	pipe := trainedVetoPipeline(t)
	reg := obs.New()
	pipe.Instrument(reg)
	stream := vetoTestStream()
	if _, err := pipe.PushAll(stream); err != nil {
		t.Fatal(err)
	}
	lat := reg.SketchSnapshots()["online/pipeline/push_latency"]
	if lat.Count != int64(len(stream)) {
		t.Errorf("pipeline push latency count = %d, want %d", lat.Count, len(stream))
	}
	esc := reg.SketchSnapshots()["online/pipeline/escalation_interarrival"]
	if esc.Count != 1 {
		t.Errorf("escalation inter-arrival count = %d, want 1 (two escalations, one gap)", esc.Count)
	}
}

// TestInstrumentedPushAllocs extends the steady-state zero-allocation
// contract to the thresholding and pipeline layers: with full telemetry
// (sketches included) and a journal attached, a non-alarming push
// allocates nothing — journal appends happen only when alarms fire.
func TestInstrumentedPushAllocs(t *testing.T) {
	det := trained(t, func() (detector.Detector, error) { return stide.New(2) })
	alarmer, err := NewAlarmer(det, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	alarmer.Instrument(obs.New())
	alarmer.SetJournal(obs.NewAlertJournal(nil))
	// Warm past the window fill, on in-training symbols (no alarms).
	warm := trainStream()
	if _, err := alarmer.PushAll(warm); err != nil {
		t.Fatal(err)
	}
	syms := mk(0, 1, 2, 3)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, raised, err := alarmer.Push(syms[i%4]); err != nil || raised {
			t.Fatalf("unexpected alarm/err mid-guard: %v %v", raised, err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("instrumented alarmer push allocated %.2f/op, want 0", allocs)
	}
}

// TestPooledAlarmerReStampsTenant: an Alarmer recycled through Reset to a
// new tenant journals under the tenant it is re-stamped with.
func TestPooledAlarmerReStampsTenant(t *testing.T) {
	det := trained(t, func() (detector.Detector, error) { return stide.New(3) })
	a, err := NewAlarmer(det, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	journal := obs.NewAlertJournal(nil)
	a.SetJournal(journal)
	// 3-window "3 3 3" never occurs in the 0-1-2-3 training cycle, so the
	// strict-threshold stide alarmer fires on it.
	foreign := mk(0, 1, 2, 3, 3, 3, 0, 1, 2, 3)

	a.SetTenant("tenant-a")
	alarms, err := a.PushAll(foreign)
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) == 0 {
		t.Fatal("foreign stream raised no alarms")
	}
	a.Reset()
	if a.Scorer().Seen() != 0 {
		t.Fatalf("recycled alarmer leaks Seen = %d", a.Scorer().Seen())
	}
	a.SetTenant("tenant-b")
	if _, err := a.PushAll(foreign); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := journal.WriteTail(&buf, -1); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadAlerts(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sawA, sawB int
	for _, rec := range recs {
		switch rec.Tenant {
		case "tenant-a":
			sawA++
		case "tenant-b":
			sawB++
		default:
			t.Fatalf("record with unexpected tenant %q", rec.Tenant)
		}
	}
	if sawA != len(alarms) || sawB != len(alarms) {
		t.Fatalf("journal holds %d tenant-a and %d tenant-b records, want %d each", sawA, sawB, len(alarms))
	}
}
