package obs

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// tallyEvent is one recording call, replayable into a Recorder directly
// or into a Tally.
type tallyEvent struct {
	kind  int
	arc   int
	value int
	hops  int
	cause DropCause
}

// randomTallyEvents draws a seeded sequence of every per-event kind a
// simulator records, over arcs [0, m).
func randomTallyEvents(rng *rand.Rand, m, count int) []tallyEvent {
	evs := make([]tallyEvent, count)
	for i := range evs {
		evs[i] = tallyEvent{
			kind:  rng.Intn(10),
			arc:   rng.Intn(m),
			value: rng.Intn(300),
			hops:  rng.Intn(12),
			cause: DropCause(rng.Intn(int(numDropCauses))),
		}
	}
	return evs
}

func (e tallyEvent) direct(r *Recorder) {
	switch e.kind {
	case 0:
		r.ArcTraverse(e.arc)
	case 1:
		r.QueueDepth(e.arc, 1+e.value%9)
	case 2:
		r.NodeQueueDepth(e.value % 17)
	case 3:
		r.Deliver(e.value, e.hops)
	case 4:
		r.Drop(e.cause)
	case 5:
		r.Shed()
	case 6:
		r.Hold(e.value % 5)
	case 7:
		r.Retry()
	case 8:
		r.Reroute()
	case 9:
		r.Arena(e.value%2 == 0)
	}
}

func (e tallyEvent) tallied(t *Tally) {
	switch e.kind {
	case 0:
		t.ArcTraverse(e.arc)
	case 1:
		t.QueueDepth(e.arc, 1+e.value%9)
	case 2:
		t.NodeQueueDepth(e.value % 17)
	case 3:
		t.Deliver(e.value, e.hops)
	case 4:
		t.Drop(e.cause)
	case 5:
		t.Shed()
	case 6:
		t.Hold(e.value % 5)
	case 7:
		t.Retry()
	case 8:
		t.Reroute()
	case 9:
		t.Arena(e.value%2 == 0)
	}
}

func snapshotJSON(t *testing.T, r *Recorder) string {
	t.Helper()
	doc, err := r.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

// TestTallyMergeMatchesDirectRecording replays seeded event streams
// both straight into a Recorder and through run-local tallies merged
// once per run, and requires byte-identical OBS_run/v1 documents —
// including recorders whose per-arc slabs are smaller than the runs'
// arc counts, and several runs folded into one recorder.
func TestTallyMergeMatchesDirectRecording(t *testing.T) {
	const m = 97
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, sized := range []int{m, m / 2, 0} {
			direct, merged := NewRecorder(nil), NewRecorder(nil)
			direct.SizeArcs(sized)
			merged.SizeArcs(sized)
			var tl Tally
			for run := 0; run < 3; run++ {
				evs := randomTallyEvents(rng, m, 200+rng.Intn(400))
				tl.Reset(m)
				for _, e := range evs {
					e.direct(direct)
					e.tallied(&tl)
				}
				merged.Merge(&tl)
			}
			if want, got := snapshotJSON(t, direct), snapshotJSON(t, merged); want != got {
				t.Fatalf("seed %d, slab %d: merged document diverges\ndirect:\n%s\nmerged:\n%s", seed, sized, want, got)
			}
		}
	}
}

// TestTallyConcurrentMerges folds tallies from concurrent runs into one
// shared recorder (as sweep workers do) and requires the same document
// as merging them one after another.
func TestTallyConcurrentMerges(t *testing.T) {
	const m, runs = 64, 8
	rng := rand.New(rand.NewSource(5))
	streams := make([][]tallyEvent, runs)
	for i := range streams {
		streams[i] = randomTallyEvents(rng, m, 500)
	}
	sequential, shared := NewRecorder(nil), NewRecorder(nil)
	sequential.SizeArcs(m)
	shared.SizeArcs(m)
	var wg sync.WaitGroup
	for _, evs := range streams {
		var tl Tally
		tl.Reset(m)
		for _, e := range evs {
			e.tallied(&tl)
		}
		sequential.Merge(&tl)
		wg.Add(1)
		go func(evs []tallyEvent) {
			defer wg.Done()
			var tl Tally
			tl.Reset(m)
			for _, e := range evs {
				e.tallied(&tl)
			}
			shared.Merge(&tl)
		}(evs)
	}
	wg.Wait()
	if want, got := snapshotJSON(t, sequential), snapshotJSON(t, shared); want != got {
		t.Fatalf("concurrent merges diverge\nsequential:\n%s\nconcurrent:\n%s", want, got)
	}
}

// TestTallyResetReusesStorage checks that Reset zeroes every field and
// keeps the per-arc slabs' storage when it is large enough.
func TestTallyResetReusesStorage(t *testing.T) {
	var tl Tally
	tl.Reset(16)
	tl.ArcTraverse(3)
	tl.QueueDepth(5, 4)
	tl.Deliver(7, 2)
	tl.Drop(DropTTL)
	before := &tl.traversals[0]
	tl.Reset(8)
	if &tl.traversals[0] != before {
		t.Error("Reset to a smaller arc count reallocated the slab")
	}
	if !reflect.DeepEqual(tl, Tally{traversals: make([]int64, 8), peakQueue: make([]int64, 8)}) {
		t.Errorf("Reset left state behind: %+v", tl)
	}
	rec := NewRecorder(nil)
	rec.Merge(nil)
	var nilRec *Recorder
	nilRec.Merge(&tl)
	if got := rec.Snapshot().Counters[MetricDelivered]; got != 0 {
		t.Errorf("Merge(nil) recorded %d deliveries", got)
	}
}

// TestArcRollUpsByGroup checks SumArcTraversalsBy and MaxArcPeakQueueBy
// against group sums and maxima over the recorder's slab copies, with
// two group maps that skip arcs, run in runs, reach shorter or longer
// than the slab, and accumulate across calls.
func TestArcRollUpsByGroup(t *testing.T) {
	const m, groups = 40, 6
	rng := rand.New(rand.NewSource(9))
	rec := NewRecorder(nil)
	rec.SizeArcs(m)
	for _, e := range randomTallyEvents(rng, m, 2000) {
		e.direct(rec)
	}
	trav, peak := rec.ArcTraversals(), rec.ArcPeakQueue()
	wantSums, wantPeaks := make([]int64, 2*groups), make([]int64, 2*groups)
	sums, peaks := make([]int64, 2*groups), make([]int64, 2*groups)
	for _, size := range [][2]int{{m, m}, {m - 7, m}, {m + 5, m - 3}} {
		first, second := make([]int16, size[0]), make([]int16, size[1])
		for a := range first {
			first[a] = int16(rng.Intn(groups+1)) - 1 // -1: skipped
			if a > 0 && rng.Intn(3) > 0 {
				first[a] = first[a-1] // runs of one group
			}
		}
		for a := range second {
			second[a] = int16(groups + rng.Intn(groups+1) - 1)
			if second[a] == groups-1 {
				second[a] = -1
			}
		}
		for a := 0; a < min(len(first), len(second), m); a++ {
			for _, g := range []int16{first[a], second[a]} {
				if g >= 0 {
					wantSums[g] += trav[a]
					wantPeaks[g] = max(wantPeaks[g], peak[a])
				}
			}
		}
		rec.SumArcTraversalsBy(first, second, sums)
		rec.MaxArcPeakQueueBy(first, second, peaks)
		if !reflect.DeepEqual(sums, wantSums) || !reflect.DeepEqual(peaks, wantPeaks) {
			t.Fatalf("maps of %v arcs: sums %v peaks %v, want %v and %v", size, sums, peaks, wantSums, wantPeaks)
		}
	}
	var nilRec *Recorder
	nilRec.SumArcTraversalsBy([]int16{0}, []int16{1}, sums)
	nilRec.MaxArcPeakQueueBy([]int16{0}, []int16{1}, peaks)
	if !reflect.DeepEqual(sums, wantSums) || !reflect.DeepEqual(peaks, wantPeaks) {
		t.Fatal("a nil recorder must add nothing")
	}
}
