package eval

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"trips/internal/ckpt"
	"trips/internal/workloads"
)

// Tests for the LoadState contract RunSampled's recycled machines rest on:
// a restore overwrites every piece of simulated state of any machine built
// with an identical config, whatever that machine has run before.

// sampledMemories are the two memory systems a sampled run can sit on.
var sampledMemories = []struct {
	name string
	opt  TRIPSOptions
}{
	{"l2", TRIPSOptions{}},
	{"nuca", TRIPSOptions{UseNUCA: true}},
}

func sampledSpec(t *testing.T, name string) *workloads.Spec {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.Build(true)
}

// captureFrames runs spec's profiling pass the way RunSampled does and
// returns every frame it captured, in capture order.
func captureFrames(t *testing.T, spec *workloads.Spec, opt TRIPSOptions, warmup, interval int64, maxSamples int) [][]byte {
	t.Helper()
	ref, err := buildTRIPS(spec, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	ref.armSampling(warmup, interval, maxSamples, nil, func(p []byte) {
		frames = append(frames, p)
		if len(frames) == maxSamples {
			// The last capture arms no further hook: stop the pass at the
			// next commit instead of running the program to its end.
			ref.core.SetCheckpointHook(0, func(int64) error { return errCaptured })
		}
	})
	if _, err := ref.core.Run(); err != nil && !errors.Is(err, errCaptured) {
		t.Fatal(err)
	}
	if len(frames) < 2 {
		t.Fatalf("profiling pass captured %d frames, want at least 2", len(frames))
	}
	return frames
}

var errCaptured = errors.New("every frame captured")

// saveBytes returns the machine's current frame.
func saveBytes(t *testing.T, m *trips) []byte {
	t.Helper()
	var w ckpt.Writer
	if err := m.save(&w); err != nil {
		t.Fatal(err)
	}
	return w.Payload()
}

// freshInterval is the oracle: frame restored into a newly built machine
// and run for one interval. It returns the interval and the frame saved
// after it.
func freshInterval(t *testing.T, spec *workloads.Spec, opt TRIPSOptions, frame []byte, interval int64) (SampleInterval, []byte) {
	t.Helper()
	m, err := buildTRIPS(spec, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.runInterval(frame, interval)
	if err != nil {
		t.Fatal(err)
	}
	return s, saveBytes(t, m)
}

// TestRestoreIntoDirtyMachine: a machine that has already run interval j
// and then restores frame i must save frame i back byte for byte.
func TestRestoreIntoDirtyMachine(t *testing.T) {
	const interval = 500
	spec := sampledSpec(t, "256.bzip2")
	for _, mm := range sampledMemories {
		t.Run(mm.name, func(t *testing.T) {
			frames := captureFrames(t, spec, mm.opt, 300, interval, 24)
			m, err := buildTRIPS(spec, mm.opt, true)
			if err != nil {
				t.Fatal(err)
			}
			n := len(frames)
			for i := range frames {
				j := n - 1 - i
				if j == i {
					j = (i + 1) % n
				}
				if _, err := m.runInterval(frames[j], interval); err != nil {
					t.Fatalf("interval %d: %v", j, err)
				}
				if err := m.load(frames[i]); err != nil {
					t.Fatalf("restore frame %d after interval %d: %v", i, j, err)
				}
				if got := saveBytes(t, m); !bytes.Equal(got, frames[i]) {
					t.Fatalf("frame %d restored into a machine that ran interval %d saves %d bytes differing from the %d-byte frame",
						i, j, len(got), len(frames[i]))
				}
			}
		})
	}
}

// TestRecycledIntervalsMatchFreshRestore: every interval replayed on one
// recycled machine, and every interval RunSampled reports, must equal the
// same frame restored into a freshly built machine — the interval and the
// machine state after it. The tier-1 run samples up to 16 intervals per
// run; set TRIPS_CKPT_FULL=1 to sample each program from end to end.
func TestRecycledIntervalsMatchFreshRestore(t *testing.T) {
	maxSamples := 16
	if os.Getenv("TRIPS_CKPT_FULL") != "" {
		maxSamples = 1000
	}
	nuca := TRIPSOptions{UseNUCA: true}
	for _, c := range []struct {
		name, mem string
		opt       TRIPSOptions
		interval  int64
	}{
		{"vadd", "l2", TRIPSOptions{}, 300},
		{"vadd", "nuca", nuca, 300},
		{"256.bzip2", "nuca", nuca, 1500},
		{"181.mcf", "nuca", nuca, 2000},
	} {
		spec := sampledSpec(t, c.name)
		for _, warmup := range []int64{0, 777} {
			t.Run(fmt.Sprintf("%s/%s/warmup=%d", c.name, c.mem, warmup), func(t *testing.T) {
				frames := captureFrames(t, spec, c.opt, warmup, c.interval, maxSamples)
				want := make([]SampleInterval, len(frames))
				wantAfter := make([][]byte, len(frames))
				for i, f := range frames {
					want[i], wantAfter[i] = freshInterval(t, spec, c.opt, f, c.interval)
					want[i].Index = i
				}
				// Backwards, so every restore lands on a machine that has
				// run a later stretch of the program.
				m, err := buildTRIPS(spec, c.opt, true)
				if err != nil {
					t.Fatal(err)
				}
				for i := len(frames) - 1; i >= 0; i-- {
					s, err := m.runInterval(frames[i], c.interval)
					if err != nil {
						t.Fatalf("interval %d: %v", i, err)
					}
					s.Index = i
					if s != want[i] {
						t.Errorf("interval %d on the recycled machine: %+v, fresh machine %+v", i, s, want[i])
					}
					if !bytes.Equal(saveBytes(t, m), wantAfter[i]) {
						t.Errorf("interval %d: recycled machine state after the interval differs from the fresh machine's", i)
					}
				}
				sr, err := RunSampled(spec, c.opt, warmup, c.interval, maxSamples, 2)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sr.Samples, want) {
					t.Errorf("RunSampled intervals differ from the fresh-machine oracle:\n  got:  %+v\n  want: %+v", sr.Samples, want)
				}
			})
		}
	}
}

// TestSampleWorkerDiscardsFailedMachine: a frame that fails to restore must
// not poison the worker's next interval.
func TestSampleWorkerDiscardsFailedMachine(t *testing.T) {
	const interval = 400
	spec := sampledSpec(t, "vadd")
	opt := TRIPSOptions{UseNUCA: true}
	frames := captureFrames(t, spec, opt, 0, interval, 8)
	want, _ := freshInterval(t, spec, opt, frames[1], interval)

	queue := make(chan sampleFrame, 3)
	var outs [3]sampleResult
	queue <- sampleFrame{payload: frames[0], out: &outs[0]}
	queue <- sampleFrame{payload: frames[1][:len(frames[1])/2], out: &outs[1]}
	queue <- sampleFrame{payload: frames[1], out: &outs[2]}
	close(queue)
	before := machineBuilds.Load()
	sampleWorker(spec, opt, interval, queue, nil)
	if outs[0].err != nil {
		t.Fatalf("valid frame 0: %v", outs[0].err)
	}
	if outs[1].err == nil {
		t.Fatal("truncated frame restored without an error")
	}
	if outs[2].err != nil {
		t.Fatalf("valid frame after the truncated one: %v", outs[2].err)
	}
	if outs[2].s != want {
		t.Errorf("interval after a failed restore: %+v, fresh machine %+v", outs[2].s, want)
	}
	if n := machineBuilds.Load() - before; n != 2 {
		t.Errorf("worker built %d machines, want 2 (one, then a fresh one after the failure)", n)
	}
}

// TestRunSampledBuildsOneMachinePerWorker: the profiling pass plus at most
// one machine per worker, however many intervals there are.
func TestRunSampledBuildsOneMachinePerWorker(t *testing.T) {
	spec := sampledSpec(t, "vadd")
	for _, workers := range []int{1, 2, 3} {
		before := machineBuilds.Load()
		sr, err := RunSampled(spec, TRIPSOptions{UseNUCA: true}, 0, 250, 64, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(sr.Samples) < 16 {
			t.Fatalf("%d intervals, want at least 16", len(sr.Samples))
		}
		if n := machineBuilds.Load() - before; n > int64(workers)+1 {
			t.Errorf("%d workers, %d intervals: %d machine builds, want at most %d", workers, len(sr.Samples), n, workers+1)
		}
	}
}

// TestRunSampledPassFailureStopsWorkers: when the profiling pass fails
// after streaming frames, RunSampled returns its error only after every
// worker has exited.
func TestRunSampledPassFailureStopsWorkers(t *testing.T) {
	spec := sampledSpec(t, "256.bzip2")
	base := runtime.NumGoroutine()
	_, err := RunSampled(spec, TRIPSOptions{UseNUCA: true, MaxCycles: 5000}, 0, 250, 64, 3)
	if err == nil {
		t.Fatal("profiling pass past its cycle limit succeeded")
	}
	// A worker that has returned may still be counted for a moment while
	// its goroutine unwinds; one that leaked never leaves.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkRunSampled is sampled simulation's host cost on one worker: hand
// bzip2 behind the NUCA, 128 intervals of 250 cycles.
func BenchmarkRunSampled(b *testing.B) {
	w, err := workloads.ByName("256.bzip2")
	if err != nil {
		b.Fatal(err)
	}
	spec := w.Build(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunSampled(spec, TRIPSOptions{UseNUCA: true}, 100, 250, 128, 1); err != nil {
			b.Fatal(err)
		}
	}
}
