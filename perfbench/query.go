package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"aims/internal/core"
	"aims/internal/propolyne"
	"aims/internal/server"
	"aims/internal/stream"
	"aims/internal/wavelet"
	"aims/internal/wire"
)

// The query workload: one glove session preloaded over the wire, then a
// single closed-loop connection issuing range aggregates — exact COUNT,
// AVERAGE and VARIANCE plus approximate and progressive COUNT — over
// Zipf-drawn query shapes, with a small batch written every few queries so
// approximate answers seal incrementally. One op is one answered query.

type querySizes struct {
	pregen     int
	preload    int    // frames loaded before the timed phase
	horizon    int    // session length in ticks
	shapes     int    // distinct (channel, range) shapes
	writeEvery int    // queries between write batches
	writeBatch int    // frames per write batch
	budget     uint32 // approximate COUNT coefficient budget
	steps      uint32 // progressive COUNT step cap
}

func querySizesFor(cfg config) querySizes {
	if cfg.smoke {
		return querySizes{pregen: 256, preload: 4096, horizon: 1 << 14, shapes: 8, writeEvery: 8, writeBatch: 16, budget: 32, steps: 4}
	}
	return querySizes{pregen: 4096, preload: 200_000, horizon: 1 << 20, shapes: 64, writeEvery: 32, writeBatch: 32, budget: 64, steps: 8}
}

// The mix keeps exact kinds at 75% of queries, so the median sits inside
// the exact-answer latency mode. The query after each write batch is
// always approximate, so 1/writeEvery of all queries (3%) pay an
// incremental seal and the p99 sits inside that mode.
var queryMix = []struct {
	kind wire.QueryKind
	pct  int
}{
	{wire.QueryCount, 25}, {wire.QueryAverage, 25}, {wire.QueryVariance, 25},
	{wire.QueryApproxCount, 15}, {wire.QueryProgressiveCount, 10},
}

func drawKind(rng *rand.Rand) wire.QueryKind {
	x := rng.Intn(100)
	for _, m := range queryMix {
		if x < m.pct {
			return m.kind
		}
		x -= m.pct
	}
	return queryMix[len(queryMix)-1].kind
}

type queryInputs struct {
	sz     querySizes
	g      *glove
	shapes []wire.Query
	zipf   *zipf
}

func newQueryInputs(cfg config) *queryInputs {
	sz := querySizesFor(cfg)
	in := &queryInputs{sz: sz, g: newGlove(cfg.seed*100+50, sz.pregen), zipf: newZipf(sz.shapes, 1.1)}
	rng := rand.New(rand.NewSource(cfg.seed))
	span := float64(sz.preload) / rate
	for i := 0; i < sz.shapes; i++ {
		a, b := rng.Float64()*span, rng.Float64()*span
		in.shapes = append(in.shapes, wire.Query{Channel: uint16(rng.Intn(len(in.g.mins))), T0: min(a, b), T1: max(a, b)})
	}
	return in
}

func (in *queryInputs) hello() wire.Hello {
	return wire.Hello{Rate: rate, HorizonTicks: uint32(in.sz.horizon), Name: "query-0",
		Class: gloveClass, Mins: in.g.mins, Maxs: in.g.maxs}
}

// opStream yields the workload's queries: op i is a function of the seed
// and i alone, so a replay re-issues exactly what the end-to-end run did.
type opStream struct {
	in  *queryInputs
	rng *rand.Rand
	i   int64 // index of the next op
}

func (in *queryInputs) ops(seed int64) *opStream {
	return &opStream{in: in, rng: rand.New(rand.NewSource(seed*7 + 3))}
}

func (s *opStream) next() wire.Query {
	q := s.in.shapes[s.in.zipf.draw(s.rng)]
	q.Kind = drawKind(s.rng)
	if s.in.writeAt(s.i) {
		// The first read after a write is approximate: it pays the
		// incremental seal of the fresh frames.
		q.Kind = wire.QueryApproxCount
	}
	s.i++
	switch q.Kind {
	case wire.QueryApproxCount:
		q.Arg = s.in.sz.budget
	case wire.QueryProgressiveCount:
		q.Arg = s.in.sz.steps
	}
	return q
}

// writeAt reports whether a write batch precedes query i.
func (in *queryInputs) writeAt(i int64) bool { return i > 0 && i%int64(in.sz.writeEvery) == 0 }

type querySession struct {
	srv *server.Server
	c   *wire.Client
}

// start is the timed set-up: construct and start the server, register the
// session, stream the preload and seal it with one approximate query.
func (in *queryInputs) start() (*querySession, error) {
	qs := &querySession{srv: server.New(server.Config{})}
	addr, err := qs.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if qs.c, err = wire.Dial(addr.String()); err != nil {
		qs.close()
		return nil, err
	}
	qs.c.Window = 4
	if _, err := qs.c.Hello(in.hello()); err != nil {
		qs.close()
		return nil, err
	}
	var buf []stream.Frame
	for seq := 0; seq < in.sz.preload; seq += 256 {
		buf = in.g.frames(buf, uint64(seq), min(256, in.sz.preload-seq))
		if err := qs.c.SendBatch(buf); err != nil {
			qs.close()
			return nil, err
		}
	}
	if _, err := qs.c.Flush(); err != nil {
		qs.close()
		return nil, err
	}
	if _, err := qs.c.Query(wire.Query{Kind: wire.QueryApproxCount, T1: 1, Arg: 1}); err != nil {
		qs.close()
		return nil, err
	}
	return qs, nil
}

func (qs *querySession) close() error {
	var first error
	if qs.c != nil {
		_, first = qs.c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := qs.srv.Shutdown(ctx); err != nil && first == nil {
		first = err
	}
	return first
}

// referenceStore is the session's store built directly from the frames,
// without the server: what every exact answer must equal bit for bit.
func (in *queryInputs) referenceStore() (*core.LiveStore, error) {
	ls, err := core.NewLiveStore(in.g.mins, in.g.maxs, core.LiveStoreConfig{Rate: rate, HorizonTicks: in.sz.horizon})
	if err != nil {
		return nil, err
	}
	if err := in.g.fill(ls, in.sz.preload); err != nil {
		return nil, err
	}
	return ls, nil
}

func runQuery(cfg config) (*outcome, error) {
	in := newQueryInputs(cfg)
	var qs *querySession
	o := &outcome{record: map[string]any{}}
	var err error
	o.setupS, err = timeSetups(cfg, nil,
		func(int) (err error) { qs, err = in.start(); return err },
		func(int) error { return qs.close() })
	if err != nil {
		return nil, err
	}

	// Only the answers are kept (compactly, so the log barely moves the
	// live heap); the queries are regenerated from the seed to check them.
	ops := in.ops(cfg.seed)
	var answers []answer
	var buf []stream.Frame
	seq := uint64(in.sz.preload)
	cache0 := propolyne.SharedCache.Stats()
	m := newMeter(cfg.phase(), cfg.slices)
	r := m.recorder()
	m.run()
	for i := int64(0); !m.over(); i++ {
		if in.writeAt(i) {
			buf = in.g.frames(buf, seq, in.sz.writeBatch)
			if err := qs.c.SendBatch(buf); err != nil {
				return nil, err
			}
			if _, err := qs.c.Flush(); err != nil {
				return nil, err
			}
			seq += uint64(len(buf))
		}
		q := ops.next()
		o.tally.attempted++
		t0 := time.Now()
		res, err := qs.c.Query(q)
		end := time.Now()
		if err != nil {
			o.tally.errored++
			break
		}
		answers = append(answers, answer{value: res.Value, bound: res.Bound, ok: res.OK && res.Final})
		r.book(end, 1, float64(end.Sub(t0))/1e6)
	}
	m.wait()
	o.phase = m.summarize()
	cache1 := propolyne.SharedCache.Stats()
	o.heapMB = liveHeapMB()
	o.replayOps = int64(len(answers))
	if err := qs.close(); err != nil {
		return nil, err
	}

	ref, err := in.referenceStore()
	if err != nil {
		return nil, err
	}
	seq = uint64(in.sz.preload)
	kinds := map[string]int{}
	ops = in.ops(cfg.seed)
	for i, a := range answers {
		q := ops.next()
		kinds[fmt.Sprint(q.Kind)]++
		if in.writeAt(int64(i)) {
			buf = in.g.frames(buf, seq, in.sz.writeBatch)
			if _, err := ref.AppendFrames(buf); err != nil {
				return nil, err
			}
			seq += uint64(len(buf))
		}
		o.checked++
		if !answerOK(ref, q, a) {
			o.wrong++
		}
	}
	o.record["kinds"] = kinds
	o.record["plan_cache_hits"] = cache1.Hits - cache0.Hits
	o.record["plan_cache_misses"] = cache1.Misses - cache0.Misses
	o.record["preload_frames"], o.record["shapes"] = in.sz.preload, in.sz.shapes
	return o, nil
}

// answer is the part of a query result the check needs.
type answer struct {
	value, bound float64
	ok           bool // OK and final
}

// answerOK checks one answer against the reference store holding the same
// frames: exact kinds must match bit for bit, approximate and progressive
// COUNTs must lie within their own guaranteed bound of the exact count.
func answerOK(ref *core.LiveStore, q wire.Query, r answer) bool {
	ch := int(q.Channel)
	if !r.ok {
		return false
	}
	switch q.Kind {
	case wire.QueryCount:
		v, err := ref.CountSamples(ch, q.T0, q.T1)
		return err == nil && math.Float64bits(v) == math.Float64bits(r.value)
	case wire.QueryAverage:
		v, ok, err := ref.AverageValue(ch, q.T0, q.T1)
		return err == nil && ok && math.Float64bits(v) == math.Float64bits(r.value)
	case wire.QueryVariance:
		v, ok, err := ref.VarianceValue(ch, q.T0, q.T1)
		return err == nil && ok && math.Float64bits(v) == math.Float64bits(r.value)
	case wire.QueryApproxCount, wire.QueryProgressiveCount:
		v, err := ref.CountSamples(ch, q.T0, q.T1)
		return err == nil && math.Abs(r.value-v) <= r.bound*(1+1e-9)+1e-6*math.Max(1, math.Abs(v))
	}
	return false
}

// planQuery is the ProPolyne box query a sealed store answers for a
// (channel, [t0, t1]) COUNT: the channel's row, the time buckets the range
// covers, every value bin — the same mapping core applies.
func planQuery(st *core.Store, ch int, t0, t1 float64) propolyne.Query {
	lo := int(t0 * st.Rate / float64(st.TicksPerBucket))
	hi := int(t1 * st.Rate / float64(st.TicksPerBucket))
	lo = max(lo, 0)
	hi = min(hi, st.TimeBuckets-1)
	hi = max(hi, lo)
	return propolyne.Query{Lo: []int{ch, lo, 0}, Hi: []int{ch, hi, st.ValueBins - 1}}
}

// replayQuery re-issues the query stream against a store built directly
// from the same frames, timing each layer the server's evaluation crosses:
// the exact moment scan; for approximate kinds the seal, the plan lookup
// (a cache hit or a compile) and the plan evaluation; and the appends of
// the interleaved write batches.
func replayQuery(cfg config, tr *tracer, lim replayLimit) (*layerReport, error) {
	in := newQueryInputs(cfg)
	ls, err := in.referenceStore()
	if err != nil {
		return nil, err
	}
	sp := tr.begin("core.seal_full", -1, -1)
	t0 := time.Now()
	st, err := ls.Seal()
	sealFullMS := float64(time.Since(t0)) / 1e6
	tr.end(sp, 1)
	if err != nil {
		return nil, err
	}
	transformMS := timeTransform(st)

	ops := in.ops(cfg.seed)
	var buf []stream.Frame
	seq := uint64(in.sz.preload)
	dirty := false
	var hits, compiles int64
	var n int64
	start := time.Now()
	for ; !lim.done(n, start); n++ {
		root := tr.begin("op", -1, n)
		if in.writeAt(n) {
			buf = in.g.frames(buf, seq, in.sz.writeBatch)
			sp := tr.begin("core.append", root, n)
			_, err := ls.AppendFrames(buf)
			tr.end(sp, int32(len(buf)))
			if err != nil {
				return nil, err
			}
			seq += uint64(len(buf))
			dirty = true
		}
		q := ops.next()
		ch := int(q.Channel)
		switch q.Kind {
		case wire.QueryCount, wire.QueryAverage, wire.QueryVariance:
			sp := tr.begin("core.summarize", root, n)
			switch q.Kind {
			case wire.QueryCount:
				_, err = ls.CountSamples(ch, q.T0, q.T1)
			case wire.QueryAverage:
				_, _, err = ls.AverageValue(ch, q.T0, q.T1)
			default:
				_, _, err = ls.VarianceValue(ch, q.T0, q.T1)
			}
			tr.end(sp, 1)
		default:
			sp := tr.begin("core.seal_cached", root, n)
			if dirty {
				tr.rename(sp, "core.seal_incremental")
				dirty = false
			}
			st, err = ls.Seal()
			tr.end(sp, 1)
			if err != nil {
				return nil, err
			}
			pq := planQuery(st, ch, q.T0, q.T1)
			before := propolyne.SharedCache.Stats().Hits
			sp = tr.begin("propolyne.compile", root, n)
			_, err = propolyne.SharedCache.Lookup(st.Engine, pq)
			if propolyne.SharedCache.Stats().Hits > before {
				tr.rename(sp, "propolyne.hit")
				hits++
			} else {
				compiles++
			}
			tr.end(sp, 1)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("propolyne.eval", root, n)
			if q.Kind == wire.QueryApproxCount {
				_, _, err = st.Engine.EstimateWithBudget(pq, int(q.Arg))
			} else {
				_, _, err = st.Engine.Progressive(pq, int(q.Arg))
			}
			tr.end(sp, 1)
		}
		tr.end(root, 1)
		if err != nil {
			return nil, err
		}
	}
	wall := time.Since(start)

	s := tr.byName()
	return &layerReport{
		ops:  n,
		wall: wall,
		layerNS: sumNS(s, "core.append", "core.summarize", "core.seal_cached", "core.seal_incremental",
			"propolyne.compile", "propolyne.hit", "propolyne.eval"),
		metrics: map[string]metric{
			"core.summarize_us":        {s["core.summarize"].medianUS(), "us"},
			"core.seal_incremental_ms": {s["core.seal_incremental"].medianUS() / 1e3, "ms"},
			"core.seal_full_ms":        {sealFullMS, "ms"},
			"wavelet.transform_ms":     {transformMS, "ms"},
			"propolyne.plan_hit_frac":  {float64(hits) / float64(max(hits+compiles, 1)), "frac"},
			"propolyne.compile_us":     {s["propolyne.compile"].medianUS(), "us"},
			"propolyne.dot_us":         {s["propolyne.eval"].medianUS(), "us"},
		},
	}, nil
}

// timeTransform times the forward wavelet transform a full seal runs: one
// TransformAxis per wavelet-basis axis of the sealed engine, over a copy of
// its coefficient array (the cost does not depend on the values).
func timeTransform(st *core.Store) float64 {
	e := st.Engine
	data := append([]float64(nil), e.Coeffs...)
	t0 := time.Now()
	for axis, b := range e.Bases {
		if !b.Standard {
			wavelet.TransformAxis(data, e.Dims, axis, b.Filter, -1)
		}
	}
	return float64(time.Since(t0)) / 1e6
}
