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
// simulator records, over arcs [0, m). Queue depths, latencies and hop
// counts come from tallyValue: with smallOnly every one lies in the
// tally's exact range [0, smallValues), so a histogram's max comes from
// the small-value counts alone.
func randomTallyEvents(rng *rand.Rand, m, count int, smallOnly bool) []tallyEvent {
	evs := make([]tallyEvent, count)
	for i := range evs {
		evs[i] = tallyEvent{
			kind:  rng.Intn(11),
			arc:   rng.Intn(m),
			value: tallyValue(rng, smallOnly),
			hops:  tallyValue(rng, smallOnly),
			cause: DropCause(rng.Intn(int(numDropCauses))),
		}
	}
	return evs
}

// tallyValue draws a recorded value: the edges of the exact range (0,
// smallValues−1 and, unless smallOnly, smallValues), values inside it,
// and unless smallOnly values up to 2²⁰ and negative ones.
func tallyValue(rng *rand.Rand, smallOnly bool) int {
	switch k := rng.Intn(10); {
	case k == 0:
		return 0
	case k == 1:
		return smallValues - 1
	case smallOnly || k < 5:
		return rng.Intn(smallValues)
	case k == 5:
		return smallValues
	case k == 6:
		return -1 - rng.Intn(1000)
	default:
		return rng.Intn(1<<20 + 1)
	}
}

func (e tallyEvent) direct(r *Recorder) {
	switch e.kind {
	case 0:
		r.ArcTraverse(e.arc)
	case 1:
		r.QueueDepth(e.arc, e.value)
	case 2:
		r.NodeQueueDepth(e.value)
	case 3:
		r.Deliver(e.value, e.hops)
	case 4:
		r.Drop(e.cause)
	case 5:
		r.Shed()
	case 6:
		r.Hold(e.value)
	case 7:
		r.Retry()
	case 8:
		r.Reroute()
	case 9:
		r.Arena(e.value%2 == 0)
	case 10:
		r.Deflect()
	}
}

func (e tallyEvent) tallied(t *Tally) {
	switch e.kind {
	case 0:
		t.ArcTraverse(e.arc)
	case 1:
		t.QueueDepth(e.arc, e.value)
	case 2:
		t.NodeQueueDepth(e.value)
	case 3:
		t.Deliver(e.value, e.hops)
	case 4:
		t.Drop(e.cause)
	case 5:
		t.Shed()
	case 6:
		t.Hold(e.value)
	case 7:
		t.Retry()
	case 8:
		t.Reroute()
	case 9:
		t.Arena(e.value%2 == 0)
	case 10:
		t.Deflect()
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
// arc counts, and several runs folded into one recorder. Every
// small-value count (queue depths from QueueDepth and NodeQueueDepth,
// latencies, hop counts) sees 0, 63 and, on odd seeds, 64, values up to
// 2²⁰ and negative ones; even seeds record only values below 64, so a
// histogram's max and every bucket come from the small counts alone.
func TestTallyMergeMatchesDirectRecording(t *testing.T) {
	const m = 97
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		smallOnly := seed%2 == 0
		for _, sized := range []int{m, m / 2, 0} {
			direct, merged := NewRecorder(nil), NewRecorder(nil)
			direct.SizeArcs(sized)
			merged.SizeArcs(sized)
			var tl Tally
			for run := 0; run < 3; run++ {
				evs := randomTallyEvents(rng, m, 200+rng.Intn(400), smallOnly)
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

// TestTallyConcurrentMerges drives one shared recorder from every side
// at once, as sweep workers and live callers do: goroutines merging
// their own tallies, live ArcTraverse and QueueDepth callers, SizeArcs
// growing the slabs, and Snapshot and SumArcTraversalsBy readers. The
// final document must equal that of a recorder fed the same events one
// after another, and each reader must see the traversal total only
// grow. Run it under -race.
func TestTallyConcurrentMerges(t *testing.T) {
	const m, runs, live, grown = 64, 8, 2, 80
	rng := rand.New(rand.NewSource(5))
	streams := make([][]tallyEvent, runs+live)
	for i := range streams {
		streams[i] = randomTallyEvents(rng, m, 500, i%2 == 0)
	}
	sequential, shared := NewRecorder(nil), NewRecorder(nil)
	sequential.SizeArcs(grown)
	shared.SizeArcs(m)
	for i, evs := range streams {
		if i < runs {
			var tl Tally
			tl.Reset(m)
			for _, e := range evs {
				e.tallied(&tl)
			}
			sequential.Merge(&tl)
			continue
		}
		for _, e := range evs {
			liveEvent(e).direct(sequential)
		}
	}

	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			first, second := make([]int16, grown), make([]int16, grown)
			for a := range first {
				first[a], second[a] = int16(a%4), int16(4+a%3)
			}
			var last int64
			for {
				var total int64
				if r == 0 {
					for _, c := range shared.Snapshot().Arcs.Traversals {
						total += c
					}
				} else {
					sums := make([]int64, 7)
					shared.SumArcTraversalsBy(first, second, sums)
					total = sums[0] + sums[1] + sums[2] + sums[3]
				}
				if total < last {
					t.Errorf("reader %d: traversal total fell from %d to %d", r, last, total)
					return
				}
				last = total
				select {
				case <-done:
					return
				default:
				}
			}
		}(r)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for size := m + 1; size <= grown; size++ {
			shared.SizeArcs(size)
		}
	}()
	for i, evs := range streams {
		writers.Add(1)
		go func(evs []tallyEvent, merge bool) {
			defer writers.Done()
			if !merge {
				for _, e := range evs {
					liveEvent(e).direct(shared)
				}
				return
			}
			var tl Tally
			tl.Reset(m)
			for _, e := range evs {
				e.tallied(&tl)
			}
			shared.Merge(&tl)
		}(evs, i < runs)
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if want, got := snapshotJSON(t, sequential), snapshotJSON(t, shared); want != got {
		t.Fatalf("concurrent recording diverges\nsequential:\n%s\nconcurrent:\n%s", want, got)
	}
}

// liveEvent turns every event into one of the two per-arc live calls,
// ArcTraverse or QueueDepth.
func liveEvent(e tallyEvent) tallyEvent {
	e.kind = e.kind % 2
	return e
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
	if !reflect.DeepEqual(tl, Tally{traversals: make([]int32, 8), peakQueue: make([]int32, 8)}) {
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
	for _, e := range randomTallyEvents(rng, m, 2000, false) {
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
