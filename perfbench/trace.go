package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aims/internal/propolyne"
)

// span is one timed call in a layer replay. Spans of one replayed op share
// Op; a layer call's Parent is the op's root span. Calls counts how many
// consecutive calls of the same function the span covers (a run of cheap
// per-frame pushes is one span, not one per frame).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Calls  int32  `json:"calls"`
}

// tracer keeps spans in memory; they are written out once the run ends.
// A disabled tracer reads no clock and records nothing, so the same replay
// code runs traced and untraced and the difference is the tracing cost.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op, Calls: 1})
	return int32(len(t.spans) - 1)
}

// end closes span id, which covered calls calls.
func (t *tracer) end(id int32, calls int32) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	s.Calls = calls
}

// drop discards span id, which must be the newest (a call that turned out
// to do no work of the layer, such as a snapshot check that did not fire).
func (t *tracer) drop(id int32) {
	if id >= 0 && int(id) == len(t.spans)-1 {
		t.spans = t.spans[:id]
	}
}

// rename relabels an open span once its outcome is known (a plan lookup
// becomes a hit or a compile).
func (t *tracer) rename(id int32, name string) {
	if id >= 0 {
		t.spans[id].Name = name
	}
}

// layerStat aggregates every span of one name.
type layerStat struct {
	durs  []float64 // ns per span
	total float64   // ns over all spans
	calls int64
}

// byName groups closed spans by name; root spans (named "op") are skipped.
func (t *tracer) byName() map[string]*layerStat {
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := float64(s.End - s.Start)
		st.durs = append(st.durs, d)
		st.total += d
		st.calls += int64(s.Calls)
	}
	return out
}

// medianRootUS is the median duration, in microseconds, of the named spans
// recorded outside any op (set-up work and comparison calls).
func medianRootUS(t *tracer, name string) float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name == name {
			d = append(d, float64(s.End-s.Start))
		}
	}
	return median(d) / 1e3
}

// sumNS is the summed duration of the named layers' spans.
func sumNS(stats map[string]*layerStat, names ...string) float64 {
	var n float64
	for _, name := range names {
		if st := stats[name]; st != nil {
			n += st.total
		}
	}
	return n
}

// medianUS is the median span duration of a layer in microseconds.
func (st *layerStat) medianUS() float64 {
	if st == nil {
		return 0
	}
	return median(st.durs) / 1e3
}

// perCallUS is a layer's total time over its call count, in microseconds.
func (st *layerStat) perCallUS() float64 {
	if st == nil || st.calls == 0 {
		return 0
	}
	return st.total / 1e3 / float64(st.calls)
}

// write dumps the spans as gzip-compressed JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerReport is what one replay measured.
type layerReport struct {
	metrics map[string]metric
	ops     int64         // ops replayed, in the workload's end-to-end unit
	wall    time.Duration // wall time of the replayed op loop
	layerNS float64       // time in the per-op layer calls (traced pass)
}

// replayLimit bounds a replay: stop after ops ops (when > 0) or once the
// budget has elapsed, whichever comes first.
type replayLimit struct {
	ops    int64
	budget time.Duration
}

func (l replayLimit) done(n int64, start time.Time) bool {
	if l.ops > 0 && n >= l.ops {
		return true
	}
	return l.budget > 0 && time.Since(start) >= l.budget
}

// traced is the -trace 1 run. It runs the named workload end to end for
// part of the phase (untraced) and, because ingest's per-frame server cost
// is defined against its end-to-end CPU, a short ingest pass too. Then it
// replays every workload's generated inputs, the recognition stream
// included, through the layers twice — untraced and traced, on freshly
// built state — and reports the per-layer metrics of all four, plus the
// named workload's runtime counters, its share of end-to-end CPU the layer
// calls do not account for, and the tracing overhead of its replay.
func traced(cfg config, w workload, rec map[string]any) (result, error) {
	short := cfg
	short.setups, short.warmups = 1, 0
	named := short
	named.seconds = cfg.seconds * 0.35
	short.seconds = cfg.seconds * 0.1

	e2e := map[string]*outcome{}
	o, err := w.run(named)
	if err != nil {
		return result{}, err
	}
	e2e[w.name] = o
	if w.name != "ingest" {
		if e2e["ingest"], err = runIngest(short); err != nil {
			return result{}, err
		}
	}
	for name, eo := range e2e {
		if eo.phase.ops == 0 {
			return result{}, fmt.Errorf("%s pass completed no operation", name)
		}
	}

	metrics := map[string]metric{}
	var tally tally
	correct := true
	for _, eo := range e2e {
		tally.add(eo.tally)
		correct = correct && eo.wrong == 0 && eo.tally.failed() == 0
	}
	var overhead, unaccounted float64
	for _, x := range workloads {
		lim := replayLimit{budget: time.Duration(short.seconds * float64(time.Second))}
		if eo := e2e[x.name]; eo != nil {
			lim = replayLimit{ops: eo.replayOps, budget: time.Duration(named.seconds * float64(time.Second))}
		}
		propolyne.SharedCache.Purge()
		plain, err := x.replay(cfg, newTracer(false), lim)
		if err != nil {
			return result{}, fmt.Errorf("%s replay: %w", x.name, err)
		}
		propolyne.SharedCache.Purge()
		tr := newTracer(true)
		rep, err := x.replay(cfg, tr, replayLimit{ops: plain.ops})
		if err != nil {
			return result{}, fmt.Errorf("%s traced replay: %w", x.name, err)
		}
		if rep.ops == 0 || rep.ops != plain.ops {
			return result{}, fmt.Errorf("%s replay: traced pass ran %d ops, untraced %d", x.name, rep.ops, plain.ops)
		}
		for k, v := range rep.metrics {
			metrics[k] = v
		}
		tally.attempted += rep.ops
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d-%s.jsonl.gz", w.name, cfg.seed, x.name))
		if err := tr.write(path); err != nil {
			return result{}, err
		}
		rec["spans_"+x.name] = len(tr.spans)
		rec["replay_ops_"+x.name] = rep.ops

		layerUS := rep.layerNS / 1e3 / float64(rep.ops)
		if eo := e2e[x.name]; eo != nil {
			e2eUS := eo.phase.cpuUS / float64(eo.phase.ops)
			if x.name == "ingest" {
				metrics["server.unaccounted_us_per_frame"] = metric{e2eUS - layerUS, "us"}
			}
			if x.name == w.name {
				unaccounted = 1 - layerUS/e2eUS
				overhead = (rep.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds()
				rec["replay_wall_untraced_s"] = plain.wall.Seconds()
				rec["replay_wall_traced_s"] = rep.wall.Seconds()
				rec["e2e_cpu_us_per_op"] = e2eUS
				rec["layer_us_per_op"] = layerUS
			}
		}
	}
	metrics["unaccounted_frac"] = metric{unaccounted, "frac"}
	metrics["trace.overhead_frac"] = metric{overhead, "frac"}
	ps := o.phase
	metrics["runtime.alloc_b_per_op"] = metric{float64(ps.allocB) / float64(ps.ops), "B"}
	metrics["runtime.gc_per_kop"] = metric{float64(ps.gcs) * 1000 / float64(ps.ops), "count"}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	rec["per_layer_names"] = names
	rec["e2e_ops"] = ps.ops
	return result{Correct: correct, Attempted: tally.attempted, Failed: tally.failed(), Metrics: metrics}, nil
}
