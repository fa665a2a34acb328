package main

import (
	"math"
	"math/rand"

	"aims/internal/core"
	"aims/internal/sensors"
	"aims/internal/stream"
)

// Inputs are generated here from the seed alone; the program under test
// sees only the frames, queries and sign streams these functions return.

const (
	rate       = sensors.DefaultClock // device clock, Hz
	gloveClass = "cyberglove"
	// horizonTicks is the session length every glove registers with: long
	// enough that a fast benchmark stream still spreads over the store's
	// time buckets instead of clamping into the last one.
	horizonTicks = 1 << 22
)

// glove is one seeded 28-channel CyberGlove+Polhemus recording, replayed
// cyclically as an endless frame stream, plus the channel ranges the
// device registers with.
type glove struct {
	rec        [][]float64
	mins, maxs []float64
}

func newGlove(seed int64, n int) *glove {
	specs := sensors.GloveSpecs()
	dev := sensors.NewDevice(specs, rate, 1.0, seed)
	g := &glove{rec: make([][]float64, n), mins: make([]float64, len(specs)), maxs: make([]float64, len(specs))}
	for i := range g.rec {
		g.rec[i] = dev.Frame(i)
	}
	for c := range specs {
		lo, hi := g.rec[0][c], g.rec[0][c]
		for _, fr := range g.rec {
			lo, hi = min(lo, fr[c]), max(hi, fr[c])
		}
		span := hi - lo
		g.mins[c], g.maxs[c] = lo-0.05*span, hi+0.05*span
	}
	return g
}

// frames fills dst with n consecutive frames starting at stream tick
// start. The frame values alias the recording; callers must not mutate
// them.
func (g *glove) frames(dst []stream.Frame, start uint64, n int) []stream.Frame {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		t := start + uint64(i)
		dst = append(dst, stream.Frame{T: float64(t) / rate, Values: g.rec[t%uint64(len(g.rec))]})
	}
	return dst
}

// fill appends the first n frames of the stream to ls in 256-frame
// batches.
func (g *glove) fill(ls *core.LiveStore, n int) error {
	var buf []stream.Frame
	for seq := 0; seq < n; seq += 256 {
		buf = g.frames(buf, uint64(seq), min(256, n-seq))
		if _, err := ls.AppendFrames(buf); err != nil {
			return err
		}
	}
	return nil
}

// zipf draws ranks in [0, n) with P(k) ∝ 1/(k+1)^s: a few hot query
// shapes and a long tail, the reuse pattern a plan cache exists for.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
