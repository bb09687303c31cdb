package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestRecorderConcurrentHammer drives every Recorder method from 8
// goroutines sharing one recorder — the shape internal/par's workers and the
// experiment fan-outs produce. Run under -race this is the concurrency-safety
// contract's enforcement; the totals check below catches lost updates even
// without the race detector.
func TestRecorderConcurrentHammer(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(nil, NewJournal(&buf))

	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rec.Count("hammer.count", 1)
				rec.Gauge("hammer.gauge", int64(i))
				rec.GaugeMax("hammer.peak", int64(g*iters+i))
				rec.Observe("hammer.timer", time.Duration(i))
				stop := rec.StartTimer("hammer.walltimer")
				stop()
				if i%100 == 0 {
					rec.Log(Line{TNS: int64(i), Kind: "hammer", VM: -1, Server: g, Dest: -1})
					rec.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	snap := rec.Snapshot()
	if got, want := snap.Counters["hammer.count"], int64(goroutines*iters); got != want {
		t.Errorf("counter lost updates: got %d, want %d", got, want)
	}
	if got, want := snap.Gauges["hammer.peak"], int64(goroutines*iters-1); got != want {
		t.Errorf("gauge high-water mark: got %d, want %d", got, want)
	}
	timer := snap.Timers["hammer.timer"]
	if got, want := timer.Count, int64(goroutines*iters); got != want {
		t.Errorf("timer lost observations: got %d, want %d", got, want)
	}
	// Every line must decode whole: concurrent Logs never interleave bytes.
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	lines := 0
	for dec.More() {
		var l Line
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("journal line %d: %v", lines, err)
		}
		if l.Kind != "hammer" {
			t.Fatalf("journal line %d = %+v", lines, l)
		}
		lines++
	}
	if want := goroutines * iters / 100; lines != want {
		t.Errorf("journal lines: got %d, want %d", lines, want)
	}
}
