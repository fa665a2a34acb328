package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aims/internal/core"
	"aims/internal/fleet"
	"aims/internal/propolyne"
	"aims/internal/wire"
)

// The fleet workload: a class of sealed glove sessions queried across the
// whole class through fleet.Evaluate — what the server's fleet handler
// calls — by one closed-loop caller, with the scatter pool as wide as the
// machine. Ranges are uniform, so every approximate query compiles its
// plan once and then hits it on every other session. One op is one merged
// answer.
//
// The fleet is shaped after experiment E16: each session is as small as
// E16's (256 frames into a 64-time-bucket × 16-value-bin cube, here with
// all 28 glove channels), and 256 of them sit between E16's 100- and
// 1000-session points. Scatter, per-session dispatch and the O(N) merge
// therefore weigh as much as the scans themselves.

type fleetSizes struct {
	sessions    int
	frames      int // frames per session
	timeBuckets int
	valueBins   int
	budget      uint32
}

func fleetSizesFor(cfg config) fleetSizes {
	sz := fleetSizes{sessions: 256, frames: 256, timeBuckets: 64, valueBins: 16, budget: 64}
	if cfg.smoke {
		sz.sessions = 4
	}
	return sz
}

// fleetMix keeps exact kinds at 70% so the median is an exact scan and
// the approximate queries, which also compile a plan, set the tail.
var fleetMix = []struct {
	kind wire.QueryKind
	pct  int
}{
	{wire.QueryCount, 25}, {wire.QueryAverage, 25}, {wire.QueryVariance, 20}, {wire.QueryApproxCount, 30},
}

type fleetInputs struct {
	sz     fleetSizes
	gloves []*glove
}

func newFleetInputs(cfg config) *fleetInputs {
	in := &fleetInputs{sz: fleetSizesFor(cfg)}
	for s := 0; s < in.sz.sessions; s++ {
		in.gloves = append(in.gloves, newGlove(cfg.seed*1000+500+int64(s), in.sz.frames))
	}
	return in
}

// build is the timed set-up: every session's live store filled and sealed.
func (in *fleetInputs) build() ([]fleet.Session, error) {
	out := make([]fleet.Session, 0, len(in.gloves))
	for s, g := range in.gloves {
		ls, err := core.NewLiveStore(g.mins, g.maxs, core.LiveStoreConfig{Rate: rate, HorizonTicks: in.sz.frames,
			TimeBuckets: in.sz.timeBuckets, ValueBins: in.sz.valueBins})
		if err != nil {
			return nil, err
		}
		if err := g.fill(ls, in.sz.frames); err != nil {
			return nil, err
		}
		if _, err := ls.Seal(); err != nil {
			return nil, err
		}
		out = append(out, fleet.Session{ID: uint64(s + 1), Class: gloveClass, Store: ls})
	}
	return out, nil
}

// fleetOps yields the workload's fleet queries, a function of the seed
// and the op index alone.
type fleetOps struct {
	in  *fleetInputs
	rng *rand.Rand
}

func (in *fleetInputs) ops(seed int64) *fleetOps {
	return &fleetOps{in: in, rng: rand.New(rand.NewSource(seed*11 + 5))}
}

func (f *fleetOps) next() fleet.Request {
	span := float64(f.in.sz.frames) / rate
	a, b := f.rng.Float64()*span, f.rng.Float64()*span
	req := fleet.Request{Channel: f.rng.Intn(len(f.in.gloves[0].mins)), T0: min(a, b), T1: max(a, b),
		Scope: wire.FleetScope{Class: gloveClass}}
	x := f.rng.Intn(100)
	for _, m := range fleetMix {
		if x < m.pct {
			req.Kind = m.kind
			break
		}
		x -= m.pct
	}
	if req.Kind == wire.QueryApproxCount {
		req.Arg = f.in.sz.budget
	}
	return req
}

func runFleet(cfg config) (*outcome, error) {
	in := newFleetInputs(cfg)
	var sessions []fleet.Session
	o := &outcome{record: map[string]any{}}
	var err error
	o.setupS, err = timeSetups(cfg, func(int) error { propolyne.SharedCache.Purge(); return nil },
		func(int) (err error) { sessions, err = in.build(); return err },
		func(int) error { sessions = nil; return nil })
	if err != nil {
		return nil, err
	}

	// Only compact answers are kept, so the log barely moves the live heap;
	// the requests are regenerated from the seed to check them.
	ops := in.ops(cfg.seed)
	fcfg := fleet.Config{Workers: runtime.NumCPU()}
	var answers []fleetAnswer
	ctx := context.Background()
	m := newMeter(cfg.phase(), cfg.slices)
	r := m.recorder()
	m.run()
	for !m.over() {
		req := ops.next()
		o.tally.attempted++
		t0 := time.Now()
		res := fleet.Evaluate(ctx, sessions, req, fcfg)
		end := time.Now()
		switch {
		case res.Code == wire.CodePartial:
			o.tally.partial++
		case !res.OK:
			o.tally.errored++
		}
		answers = append(answers, fleetAnswer{res.Value, res.Bound, res.Coefficients, res.Merged, res.OK})
		r.book(end, 1, float64(end.Sub(t0))/1e6)
	}
	m.wait()
	o.phase = m.summarize()
	o.heapMB = liveHeapMB()
	o.replayOps = int64(len(answers))

	// Every answer is re-derived after the phase: per-session parts in
	// ascending ID order, merged. The answers are split over the machine's
	// cores; each one is still derived sequentially.
	reqs := make([]fleet.Request, len(answers))
	ops = in.ops(cfg.seed)
	for i := range reqs {
		reqs[i] = ops.next()
	}
	o.checked = int64(len(answers))
	o.wrong = checkFleet(sessions, reqs, answers, runtime.NumCPU())
	o.record["sessions"], o.record["frames_per_session"] = in.sz.sessions, in.sz.frames
	o.record["workers"] = fcfg.Workers
	return o, nil
}

// fleetAnswer is the part of a fleet result the check needs.
type fleetAnswer struct {
	value, bound float64
	coefficients uint32
	merged       uint32
	ok           bool
}

// checkFleet re-derives every answer with fleetAnswerOK on workers
// goroutines and returns how many disagreed.
func checkFleet(sessions []fleet.Session, reqs []fleet.Request, answers []fleetAnswer, workers int) int64 {
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(answers); i += workers {
				if !fleetAnswerOK(sessions, reqs[i], answers[i]) {
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return wrong.Load()
}

// fleetAnswerOK checks a fleet answer bit for bit against fleet.Merge over
// per-session fleet.EvalSession parts in ascending session-ID order.
func fleetAnswerOK(sessions []fleet.Session, req fleet.Request, got fleetAnswer) bool {
	matched, missing := fleet.Match(sessions, req.Scope)
	if len(missing) > 0 || int(got.merged) != len(matched) {
		return false
	}
	parts := make([]wire.FleetPart, 0, len(matched))
	for _, s := range matched {
		p, err := fleet.EvalSession(s, req)
		if err != nil {
			return false
		}
		parts = append(parts, p)
	}
	v, b, c, ok := fleet.Merge(req.Kind, parts)
	return ok == got.ok && math.Float64bits(v) == math.Float64bits(got.value) &&
		math.Float64bits(b) == math.Float64bits(got.bound) && c == got.coefficients
}

// replayFleet re-evaluates the fleet query stream sequentially, timing the
// scope match, the per-session scans and the merge; then it times the
// first queries through fleet.Evaluate at one worker and at nproc workers
// for the pool's speed-up.
func replayFleet(cfg config, tr *tracer, lim replayLimit) (*layerReport, error) {
	in := newFleetInputs(cfg)
	sessions, err := in.build()
	if err != nil {
		return nil, err
	}
	ops := in.ops(cfg.seed)
	var reqs []fleet.Request
	var n int64
	start := time.Now()
	for ; !lim.done(n, start); n++ {
		req := ops.next()
		reqs = append(reqs, req)
		root := tr.begin("op", -1, n)
		sp := tr.begin("fleet.match", root, n)
		matched, _ := fleet.Match(sessions, req.Scope)
		tr.end(sp, 1)
		// One span covers the op's per-session scans, as they run back to
		// back; hundreds of spans per op would cost more than the scans.
		parts := make([]wire.FleetPart, 0, len(matched))
		sp = tr.begin("fleet.scan", root, n)
		for _, s := range matched {
			p, err := fleet.EvalSession(s, req)
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
		}
		tr.end(sp, int32(len(matched)))
		sp = tr.begin("fleet.merge", root, n)
		_, _, _, ok := fleet.Merge(req.Kind, parts)
		tr.end(sp, 1)
		tr.end(root, 1)
		if !ok {
			return nil, fmt.Errorf("fleet merge of op %d failed", n)
		}
	}
	wall := time.Since(start)

	// Pool speed-up over the same queries, each pass from a cold plan cache.
	k := min(len(reqs), 400)
	p50 := func(workers int) float64 {
		propolyne.SharedCache.Purge()
		lat := make([]float64, 0, k)
		for _, req := range reqs[:k] {
			t0 := time.Now()
			fleet.Evaluate(context.Background(), sessions, req, fleet.Config{Workers: workers})
			lat = append(lat, float64(time.Since(t0)))
		}
		return median(lat)
	}
	one := p50(1)
	speedup := one / p50(runtime.NumCPU())

	s := tr.byName()
	return &layerReport{
		ops:     n,
		wall:    wall,
		layerNS: sumNS(s, "fleet.match", "fleet.scan", "fleet.merge"),
		metrics: map[string]metric{
			"fleet.match_us":            {s["fleet.match"].medianUS(), "us"},
			"fleet.merge_us":            {s["fleet.merge"].medianUS(), "us"},
			"fleet.scan_us_per_session": {s["fleet.scan"].perCallUS(), "us"},
			"fleet.worker_speedup":      {speedup, "x"},
		},
	}, nil
}
