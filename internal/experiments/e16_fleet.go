package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"aims/internal/core"
	"aims/internal/fleet"
	"aims/internal/wire"
)

// E16Result reports fleet_scale: cross-session fleet query latency as the
// live-session population grows.
type E16Result struct {
	Workers      int
	FramesEach   int
	Counts       []int     // fleet sizes evaluated
	WallMS       []float64 // fleet COUNT wall time at each size
	PerSessionUS []float64 // wall / size
	GrowthVs1    []float64 // WallMS[i] / WallMS[0]
	OneWorkerMS  []float64 // the same COUNT on a 1-worker pool
	PoolSpeedup  []float64 // OneWorkerMS[i] / WallMS[i]
}

// RunE16 measures the fleet_scale experiment: one exact COUNT evaluated
// over fleets of 1 → 10k live sessions through fleet.Evaluate — the same
// scatter-gather path the server's MsgFleetQuery handler uses. Each
// session is a small one-channel live store (64×16 cube, 256 frames), so
// the experiment isolates fan-out and merge cost rather than per-cube scan
// width. The claim under test is a flat per-session cost — latency grows
// linearly in fleet size once dispatch is amortised — divided by the
// worker pool's speed-up, measured against the same COUNT on one worker.
func RunE16(w io.Writer) E16Result {
	const (
		frames = 256
		rate   = 100.0
	)
	counts := []int{1, 10, 100, 1000, 10000}
	workers := runtime.NumCPU()
	if workers > 16 {
		workers = 16
	}

	rng := rand.New(rand.NewSource(16))
	max := counts[len(counts)-1]
	sessions := make([]fleet.Session, max)
	for i := range sessions {
		ls, err := core.NewLiveStore([]float64{-1}, []float64{1}, core.LiveStoreConfig{
			Rate: rate, HorizonTicks: frames, TimeBuckets: 64, ValueBins: 16,
		})
		if err != nil {
			panic(err)
		}
		for tick := 0; tick < frames; tick++ {
			if err := ls.AppendFrame(tick, []float64{rng.Float64()*2 - 1}); err != nil {
				panic(err)
			}
		}
		sessions[i] = fleet.Session{ID: uint64(i + 1), Class: "sim", Store: ls}
	}

	req := fleet.Request{
		Kind: wire.QueryCount, Channel: 0, T0: 0, T1: float64(frames) / rate,
		Scope: wire.FleetScope{Class: "sim"},
	}
	cfg := fleet.Config{Workers: workers, Timeout: time.Minute}

	// wallMS repeats one fleet COUNT until enough wall time accumulates for
	// a stable figure and returns the mean per answer.
	wallMS := func(n int, cfg fleet.Config) float64 {
		reps := 0
		var total time.Duration
		for total < 50*time.Millisecond || reps < 3 {
			t0 := time.Now()
			r := fleet.Evaluate(context.Background(), sessions[:n], req, cfg)
			total += time.Since(t0)
			reps++
			if !r.OK || r.Value != float64(n*frames) {
				panic(fmt.Sprintf("fleet over %d sessions: ok=%v value=%v want %d", n, r.OK, r.Value, n*frames))
			}
		}
		return float64(total.Microseconds()) / 1000 / float64(reps)
	}

	res := E16Result{Workers: workers, FramesEach: frames}
	tb := &Table{
		Title: fmt.Sprintf("E16 — fleet_scale: COUNT over N sessions (%d workers, %d frames each)",
			workers, frames),
		Columns: []string{"sessions", "wall (ms)", "per session (µs)", "vs N=1", "1-worker wall (ms)", "pool speed-up"},
	}
	for _, n := range counts {
		ms := wallMS(n, cfg)
		one := wallMS(n, fleet.Config{Workers: 1, Timeout: cfg.Timeout})
		res.Counts = append(res.Counts, n)
		res.WallMS = append(res.WallMS, ms)
		res.PerSessionUS = append(res.PerSessionUS, 1000*ms/float64(n))
		res.GrowthVs1 = append(res.GrowthVs1, ms/res.WallMS[0])
		res.OneWorkerMS = append(res.OneWorkerMS, one)
		res.PoolSpeedup = append(res.PoolSpeedup, one/ms)
		tb.AddRow(n, ms, 1000*ms/float64(n), fmt.Sprintf("%.1f×", ms/res.WallMS[0]),
			one, fmt.Sprintf("%.2f×", one/ms))
	}
	tb.Note("per-session cost is flat once dispatch is amortised: latency grows linearly in")
	tb.Note("fleet size, divided by the %d-worker pool's speed-up over one worker (at most", workers)
	tb.Note("the core count; a single-session fleet runs on one worker either way)")
	tb.Render(w)
	return res
}
