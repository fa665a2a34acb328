package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a percentile for it to be
// reported: p99 needs at least 1000 samples, p50 at least 20.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of xs by the nearest-rank
// rule, together with the sample count it rests on. ok is false when fewer
// than minTail samples lie beyond the quantile, so a tail figure is never
// read off a handful of samples.
func percentile(xs []float64, p float64) (v float64, n int, ok bool) {
	n = len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, n, false
	}
	if float64(n)*(1-p) < minTail {
		return 0, n, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], n, true
}

// median is the middle value of xs (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tally counts operations attempted and the ways they can fail. An op is
// failed when it errored, was shed by backpressure, or came back as a
// partial answer; wrong answers are counted separately by the workload's
// correctness check.
type tally struct {
	attempted int64
	errored   int64
	shed      int64
	partial   int64
}

func (t tally) failed() int64 { return t.errored + t.shed + t.partial }

// failFrac is failed ops over attempted ops (0 when nothing was attempted).
func (t tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.errored += o.errored
	t.shed += o.shed
	t.partial += o.partial
}

// cpuOf is the user+system CPU time a getrusage record reports.
func cpuOf(r syscall.Rusage) time.Duration {
	return time.Duration(r.Utime.Nano() + r.Stime.Nano())
}

// rusage reads the process's resource usage so far (zero on failure,
// which Linux never reports for RUSAGE_SELF).
func rusage() syscall.Rusage {
	var r syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &r)
	return r
}

// cpuPerOpUS converts a CPU-time delta between two getrusage records into
// microseconds per op.
func cpuPerOpUS(before, after syscall.Rusage, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(cpuOf(after)-cpuOf(before)) / 1e3 / float64(ops)
}

// meter splits a timed phase into equal wall-clock slices. Ops are booked
// into the slice their completion falls in; a sampler goroutine reads the
// process CPU time at every slice boundary. Each end-to-end figure is the
// median over slices, so a slow episode of the shared machine that covers
// fewer than half of the slices does not move it.
type meter struct {
	start    time.Time
	sliceDur time.Duration
	slices   int

	cpuAt  []syscall.Rusage // process usage at each boundary
	wallAt []time.Time      // when each boundary was read
	mem    [2]runtime.MemStats
	done   chan struct{}

	mu   sync.Mutex
	recs []*recorder
}

// recorder is one load goroutine's per-slice op counts and latencies.
type recorder struct {
	m   *meter
	ops []int64
	lat [][]float64 // ms
}

func newMeter(total time.Duration, slices int) *meter {
	if slices < 1 {
		slices = 1
	}
	return &meter{sliceDur: total / time.Duration(slices), slices: slices}
}

// run starts the phase clock and the boundary sampler.
func (m *meter) run() {
	m.cpuAt = make([]syscall.Rusage, m.slices+1)
	m.wallAt = make([]time.Time, m.slices+1)
	m.done = make(chan struct{})
	runtime.ReadMemStats(&m.mem[0])
	m.start = time.Now()
	m.cpuAt[0], m.wallAt[0] = rusage(), m.start
	go func() {
		defer close(m.done)
		for i := 1; i <= m.slices; i++ {
			time.Sleep(time.Until(m.start.Add(time.Duration(i) * m.sliceDur)))
			m.wallAt[i] = time.Now()
			m.cpuAt[i] = rusage()
		}
		runtime.ReadMemStats(&m.mem[1])
	}()
}

// wait blocks until the sampler has read the last boundary.
func (m *meter) wait() { <-m.done }

// over reports whether the phase's wall time has elapsed.
func (m *meter) over() bool { return time.Since(m.start) >= m.sliceDur*time.Duration(m.slices) }

func (m *meter) recorder() *recorder {
	r := &recorder{m: m, ops: make([]int64, m.slices), lat: make([][]float64, m.slices)}
	m.mu.Lock()
	m.recs = append(m.recs, r)
	m.mu.Unlock()
	return r
}

// book records ops completed at time end with one latency sample (ms);
// a negative latency books ops without a sample. It reports false once
// the phase is over (the ops are then not counted).
func (r *recorder) book(end time.Time, ops int64, latMS float64) bool {
	i := int(end.Sub(r.m.start) / r.m.sliceDur)
	if i >= r.m.slices {
		return false
	}
	r.ops[i] += ops
	if latMS >= 0 {
		r.lat[i] = append(r.lat[i], latMS)
	}
	return true
}

// phaseStats is the median-over-slices summary of one timed phase.
type phaseStats struct {
	opsPerS    float64
	cpuUSPerOp float64
	p50MS      float64
	p99MS      float64
	ops        int64                // ops booked over the whole phase
	samples    int                  // latency samples over the whole phase
	minSlice   int                  // fewest latency samples in any slice
	p99Slices  int                  // slices with enough samples for a p99
	slices     map[string][]float64 // per-slice figures behind each median
	cpuUS      float64              // process CPU over the whole phase
	allocB     uint64               // bytes allocated over the whole phase
	gcs        uint32               // garbage collections over the whole phase
}

// summarize folds every recorder into per-slice figures and takes their
// medians. Call it after wait.
func (m *meter) summarize() phaseStats {
	var st phaseStats
	var rates, cpus, p50s, p99s []float64
	st.minSlice = math.MaxInt
	for i := 0; i < m.slices; i++ {
		var ops int64
		var lat []float64
		for _, r := range m.recs {
			ops += r.ops[i]
			lat = append(lat, r.lat[i]...)
		}
		st.ops += ops
		st.samples += len(lat)
		if len(lat) < st.minSlice {
			st.minSlice = len(lat)
		}
		wall := m.wallAt[i+1].Sub(m.wallAt[i]).Seconds()
		if ops > 0 && wall > 0 {
			rates = append(rates, float64(ops)/wall)
			cpus = append(cpus, cpuPerOpUS(m.cpuAt[i], m.cpuAt[i+1], ops))
		}
		if v, _, ok := percentile(lat, 0.5); ok {
			p50s = append(p50s, v)
		}
		if v, _, ok := percentile(lat, 0.99); ok {
			p99s = append(p99s, v)
		}
	}
	st.slices = map[string][]float64{"ops_per_s": rates, "cpu_us_per_op": cpus, "p50_ms": p50s, "p99_ms": p99s}
	st.cpuUS = cpuPerOpUS(m.cpuAt[0], m.cpuAt[m.slices], 1)
	st.allocB = m.mem[1].TotalAlloc - m.mem[0].TotalAlloc
	st.gcs = m.mem[1].NumGC - m.mem[0].NumGC
	st.opsPerS, st.cpuUSPerOp = median(rates), median(cpus)
	st.p50MS, st.p99MS = median(p50s), median(p99s)
	st.p99Slices = len(p99s)
	return st
}
