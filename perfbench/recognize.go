package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"aims/internal/core"
	"aims/internal/svdstream"
	"aims/internal/synth"
	"aims/internal/vec"
)

// The recognize replay: the online recognizer of §3.4 fed a seeded, noisy
// CyberGlove signing stream, its work then re-executed sign by sign through
// the svdstream and vec calls it makes. Recognition has no end-to-end run
// in the benchmark (NOTES.md says why); every traced run replays it so
// those layers are still measured.

type recognizeSizes struct {
	vocab   int
	signs   int
	noise   float64
	renders []float64 // duration scales of the enrolment renders per sign
}

func recognizeSizesFor(cfg config) recognizeSizes {
	r := recognizeSizes{vocab: 20, signs: 400, noise: 0.6, renders: []float64{0.8, 1.0, 1.2}}
	if cfg.smoke {
		r.vocab, r.signs = 5, 6
	}
	return r
}

// The recognizer's evaluation schedule, as core's pipeline configures it:
// similarities are re-evaluated every stride ticks once the motion is at
// least minMotion ticks long.
const (
	vocabSeed    = 71
	recStride    = 8
	recMinMotion = 20
	recTopK      = 6
)

type recognizeInputs struct {
	sz     recognizeSizes
	refs   map[string][][][]float64
	frames [][]float64
	truth  []synth.Segment
}

func newRecognizeInputs(cfg config) *recognizeInputs {
	sz := recognizeSizesFor(cfg)
	in := &recognizeInputs{sz: sz, refs: map[string][][][]float64{}}
	// The vocabulary is the system's enrolled dictionary and stays fixed;
	// the seed draws the signing session streamed through it.
	vocab := synth.Vocabulary(sz.vocab, vocabSeed)
	rng := rand.New(rand.NewSource(vocabSeed + 1))
	for _, s := range vocab {
		for _, d := range sz.renders {
			in.refs[s.Name] = append(in.refs[s.Name], s.Render(d, 0.1, rng))
		}
	}
	in.frames, in.truth = synth.SignStream(vocab, synth.StreamOptions{
		Count: sz.signs, Noise: sz.noise, DurJitter: 0.3, GapTicks: 50, Seed: cfg.seed + 2,
	})
	return in
}

// enrol is the timed set-up: template signatures built from the enrolment
// renders, and a recognizer calibrated on the stream's leading rest.
func (in *recognizeInputs) enrol() (map[string]svdstream.Signature, *svdstream.Recognizer) {
	templates := core.BuildTemplates(in.refs)
	return templates, core.New(core.Config{}).NewRecognizer(templates, in.frames[:20], synth.SignDims)
}

// decisionTicks matches detections to ground-truth segments as experiment
// E7 does — a detection covering more than half of a segment isolates it —
// and returns the commit delay, in ticks, of every isolation.
func decisionTicks(truth []synth.Segment, dets []svdstream.Detection) []float64 {
	used := make([]bool, len(dets))
	var ticks []float64
	for _, seg := range truth {
		for i, d := range dets {
			if used[i] {
				continue
			}
			if min(seg.End, d.End)-max(seg.Start, d.Start) > (seg.End-seg.Start)/2 {
				used[i] = true
				ticks = append(ticks, float64(d.DecisionTick-d.Start))
				break
			}
		}
	}
	return ticks
}

// replayRecognize re-executes the recognizer's work sign by sign: the
// rank-one window pushes, the warm-started signature at every evaluation
// point and the top-K similarity against every template, up to the tick
// the recognizer committed.
func replayRecognize(cfg config, tr *tracer, lim replayLimit) (*layerReport, error) {
	in := newRecognizeInputs(cfg)
	templates, rec := in.enrol()
	var dets []svdstream.Detection
	for t, fr := range in.frames {
		if d := rec.Feed(t, fr); d != nil {
			dets = append(dets, *d)
		}
	}
	if len(dets) == 0 {
		return nil, fmt.Errorf("no sign detected in the stream")
	}
	sigs := make([]svdstream.Signature, 0, len(templates))
	for _, name := range sortedKeys(templates) {
		sigs = append(sigs, templates[name])
	}
	ticks := decisionTicks(in.truth, dets)

	// Windows at every fourth evaluation point (up to maxCold) are kept
	// for a cold eigensolve after the timed loop, for comparison with the
	// warm-started signature; it is not on the recognizer's path.
	const maxCold = 64
	var cold [][][]float64
	var evals, signs, frames int64
	// One growing window, reset per motion, as the recognizer keeps it.
	win := svdstream.NewIncremental(len(in.frames[0]), 1<<20)
	start := time.Now()
	for k := 0; !lim.done(frames, start); k++ {
		pass := k / len(dets)
		d := dets[k%len(dets)]
		op := int64(k)
		root := tr.begin("op", -1, op)
		win.Reset()
		pushed := 0
		for _, l := range evalPoints(d) {
			pushed0 := pushed
			sp := tr.begin("svdstream.push", root, op)
			for ; pushed < l; pushed++ {
				win.Push(in.frames[d.Start+1+pushed])
			}
			tr.end(sp, int32(l-pushed0))
			sp = tr.begin("svdstream.signature", root, op)
			sig := win.Signature()
			tr.end(sp, 1)
			sp = tr.begin("svdstream.similarity", root, op)
			for _, t := range sigs {
				svdstream.SimilarityTopK(sig, t, recTopK)
			}
			tr.end(sp, int32(len(sigs)))
			evals++
			if evals%4 == 0 && len(cold) < maxCold {
				cold = append(cold, in.frames[d.Start+1:d.Start+1+pushed])
			}
		}
		tr.end(root, 1)
		signs++
		frames = int64(pass*len(in.frames) + d.End)
	}
	wall := time.Since(start)

	for i, w := range cold {
		g := vec.MatrixFromRows(svdstream.MomentMatrix(w))
		sp := tr.begin("vec.symeigen_cold", -1, int64(i))
		vec.SymEigen(g)
		tr.end(sp, 1)
	}

	s := tr.byName()
	return &layerReport{
		ops:     frames,
		wall:    wall,
		layerNS: sumNS(s, "svdstream.push", "svdstream.signature", "svdstream.similarity"),
		metrics: map[string]metric{
			"svdstream.push_us":              {s["svdstream.push"].perCallUS(), "us"},
			"svdstream.signature_us":         {s["svdstream.signature"].medianUS(), "us"},
			"vec.symeigen_cold_us":           {medianRootUS(tr, "vec.symeigen_cold"), "us"},
			"svdstream.similarity_us":        {s["svdstream.similarity"].perCallUS(), "us"},
			"svdstream.evaluations_per_sign": {float64(evals) / float64(signs), "count"},
			"svdstream.decision_ticks_p50":   {median(ticks), "ticks"},
		},
	}, nil
}

// evalPoints lists the window lengths at which the recognizer evaluated a
// detected motion: the window holds the frames after motion start, and
// similarities are re-evaluated every stride ticks from minMotion on, up
// to the commit tick — or, when no early commit happened, to the motion's
// end, where one closing evaluation names it.
func evalPoints(d svdstream.Detection) []int {
	last := d.DecisionTick - d.Start
	if !d.Early {
		last = d.End - d.Start
	}
	var out []int
	for l := recStride * ((recMinMotion + recStride - 1) / recStride); l <= last; l += recStride {
		out = append(out, l)
	}
	if !d.Early && (len(out) == 0 || out[len(out)-1] != last) {
		out = append(out, last)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
