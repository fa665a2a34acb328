package main

import (
	"math"
	"syscall"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted input
	}
	v, n, ok := percentile(xs, 0.99)
	if !ok || n != 1000 || v != 990 {
		t.Fatalf("p99 of 1..1000 = (%v, %d, %v), want (990, 1000, true)", v, n, ok)
	}
	if _, n, ok := percentile(xs[:999], 0.99); ok || n != 999 {
		t.Fatalf("p99 of 999 samples reported ok=%v n=%d; needs 1000", ok, n)
	}
	if v, _, ok := percentile(xs[:20], 0.5); !ok || v != 990 {
		t.Fatalf("p50 of 20 samples = (%v, %v), want (990, true)", v, ok)
	}
	if _, _, ok := percentile(xs[:19], 0.5); ok {
		t.Fatal("p50 of 19 samples reported ok; needs 20")
	}
	if xs[0] != 1000 {
		t.Fatal("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTallyFailFrac(t *testing.T) {
	var all tally
	if all.failFrac() != 0 {
		t.Fatal("empty tally has a non-zero failure fraction")
	}
	all.add(tally{attempted: 150, errored: 1, shed: 2})
	all.add(tally{attempted: 50, partial: 1})
	if all.attempted != 200 || all.failed() != 4 {
		t.Fatalf("tally = %+v, want 200 attempted and 4 failed", all)
	}
	if got := all.failFrac(); got != 0.02 {
		t.Fatalf("failFrac = %v, want 0.02", got)
	}
}

func TestCPUPerOpFromRusage(t *testing.T) {
	before := syscall.Rusage{Utime: syscall.Timeval{Sec: 1}, Stime: syscall.Timeval{Usec: 250_000}}
	after := syscall.Rusage{Utime: syscall.Timeval{Sec: 2, Usec: 500_000}, Stime: syscall.Timeval{Usec: 750_000}}
	// 1.5 s user + 0.5 s system over 1000 ops.
	if got := cpuPerOpUS(before, after, 1000); math.Abs(got-2000) > 1e-9 {
		t.Fatalf("cpuPerOpUS = %v µs, want 2000", got)
	}
	if got := cpuPerOpUS(before, after, 0); got != 0 {
		t.Fatalf("cpuPerOpUS with no ops = %v, want 0", got)
	}
	if cpu := cpuOf(rusage()); cpu <= 0 {
		t.Fatalf("process CPU time %v, want > 0", cpu)
	}
}

// TestMeterTakesMedianOverSlices feeds a meter three slices by hand, one
// of them a slow episode, and checks every figure is the per-slice median.
func TestMeterTakesMedianOverSlices(t *testing.T) {
	m := newMeter(3*time.Second, 3)
	m.start = time.Unix(100, 0)
	m.wallAt = []time.Time{m.start, m.start.Add(time.Second), m.start.Add(2 * time.Second), m.start.Add(3 * time.Second)}
	cpu := func(ms int64) syscall.Rusage { return syscall.Rusage{Utime: syscall.NsecToTimeval(ms * 1e6)} }
	m.cpuAt = []syscall.Rusage{cpu(0), cpu(1000), cpu(3000), cpu(4000)}
	r := m.recorder()
	for slice, ops := range []int64{1000, 400, 1000} { // the middle slice is slow
		at := m.start.Add(time.Duration(slice)*time.Second + time.Millisecond)
		for i := int64(0); i < ops; i++ {
			lat := 1.0
			if slice == 1 {
				lat = 5
			}
			if !r.book(at, 1, lat) {
				t.Fatal("book refused an op inside the phase")
			}
		}
	}
	if r.book(m.start.Add(3*time.Second), 1, 1) {
		t.Fatal("book accepted an op after the phase")
	}
	st := m.summarize()
	if st.ops != 2400 || st.samples != 2400 || st.minSlice != 400 {
		t.Fatalf("ops=%d samples=%d minSlice=%d, want 2400/2400/400", st.ops, st.samples, st.minSlice)
	}
	if st.opsPerS != 1000 || st.cpuUSPerOp != 1000 || st.p50MS != 1 || st.p99MS != 1 {
		t.Fatalf("medians = %v ops/s, %v µs/op, p50 %v, p99 %v; want 1000, 1000, 1, 1",
			st.opsPerS, st.cpuUSPerOp, st.p50MS, st.p99MS)
	}
	if st.p99Slices != 2 {
		t.Fatalf("p99Slices = %d, want 2 (the 400-sample slice is too small)", st.p99Slices)
	}
}
