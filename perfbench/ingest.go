package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"aims/internal/core"
	"aims/internal/journal"
	"aims/internal/server"
	"aims/internal/stream"
	"aims/internal/wire"
)

// The ingest workload: two glove sessions restart from a journal a crashed
// process left behind (a snapshot plus a WAL tail each), then stream
// closed-loop over TCP. One op is one frame.

const ingestSessions = 2

type ingestSizes struct {
	pregen     int // distinct frames per glove recording
	snapFrames int // frames the seeded snapshot covers, per session
	tailFrames int // frames in the seeded WAL tail, per session
	batch      int // frames per wire batch
	window     int // pipelined batches in flight per connection
	flushEvery int // batches between flush barriers
}

func ingestSizesFor(cfg config) ingestSizes {
	if cfg.smoke {
		return ingestSizes{pregen: 256, snapFrames: 1024, tailFrames: 512, batch: 64, window: 4, flushEvery: 4}
	}
	return ingestSizes{pregen: 4096, snapFrames: 100_000, tailFrames: 60_000, batch: 256, window: 4, flushEvery: 4}
}

type ingestInputs struct {
	sz     ingestSizes
	gloves []*glove
}

func newIngestInputs(cfg config) *ingestInputs {
	in := &ingestInputs{sz: ingestSizesFor(cfg)}
	for s := 0; s < ingestSessions; s++ {
		in.gloves = append(in.gloves, newGlove(cfg.seed*100+int64(s), in.sz.pregen))
	}
	return in
}

func (in *ingestInputs) seeded() uint64 { return uint64(in.sz.snapFrames + in.sz.tailFrames) }

func (in *ingestInputs) hello(s int) wire.Hello {
	g := in.gloves[s]
	return wire.Hello{Rate: rate, HorizonTicks: horizonTicks, Name: fmt.Sprintf("glove-%d", s),
		Class: gloveClass, Mins: g.mins, Maxs: g.maxs}
}

// seedJournal writes what a crashed server would leave in dir: for every
// session a meta file, a snapshot at snapFrames and a WAL tail of
// tailFrames more, written through the journal package itself.
func (in *ingestInputs) seedJournal(dir string) error {
	mgr, err := journal.OpenManager(journal.Config{Dir: dir, Fsync: journal.FsyncOff, SnapshotFrames: -1})
	if err != nil {
		return err
	}
	for s := range in.gloves {
		h := in.hello(s)
		ls, err := core.NewLiveStore(h.Mins, h.Maxs, core.LiveStoreConfig{Rate: h.Rate, HorizonTicks: int(h.HorizonTicks)})
		if err != nil {
			return err
		}
		eff := ls.Config()
		js, _, err := mgr.Attach(journal.Meta{Name: h.Name, Rate: h.Rate, HorizonTicks: eff.HorizonTicks,
			TimeBuckets: eff.TimeBuckets, ValueBins: eff.ValueBins, Mins: h.Mins, Maxs: h.Maxs})
		if err != nil {
			return err
		}
		var buf []stream.Frame
		for seq := uint64(0); seq < in.seeded(); {
			n := min(in.sz.batch, int(in.seeded()-seq))
			if seq < uint64(in.sz.snapFrames) {
				n = min(n, in.sz.snapFrames-int(seq))
			}
			buf = in.gloves[s].frames(buf, seq, n)
			js.AppendFrames(buf, nil)
			if _, err := ls.AppendFrames(buf); err != nil {
				return err
			}
			seq += uint64(n)
			if seq == uint64(in.sz.snapFrames) {
				if err := js.Snapshot(ls); err != nil {
					return err
				}
			}
		}
		// Closing without the store skips the final snapshot: the tail
		// stays in the WAL, as after a crash.
		if err := js.Close(nil); err != nil {
			return err
		}
	}
	return nil
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		to := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		r, err := os.Open(p)
		if err != nil {
			return err
		}
		defer r.Close()
		w, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(w, r); err != nil {
			w.Close()
			return err
		}
		return w.Close()
	})
}

// ingestServer is one restarted server with its resumed device links.
type ingestServer struct {
	srv   *server.Server
	conns []*wire.Client
	dir   string
}

// restart is the timed set-up: construct the server over a copy of the
// seeded journal, recover, listen, and resume both sessions by name.
func (in *ingestInputs) restart(dir string) (*ingestServer, error) {
	is := &ingestServer{dir: dir}
	is.srv = server.New(server.Config{Journal: journal.Config{Dir: dir, Fsync: journal.FsyncInterval}})
	n, err := is.srv.RecoverSessions()
	if err != nil {
		return nil, err
	}
	if n != ingestSessions {
		return nil, fmt.Errorf("recovered %d sessions, want %d", n, ingestSessions)
	}
	addr, err := is.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for s := range in.gloves {
		c, err := wire.Dial(addr.String())
		if err != nil {
			is.close()
			return nil, err
		}
		c.Window = in.sz.window
		is.conns = append(is.conns, c)
		w, err := c.Hello(in.hello(s))
		if err != nil {
			is.close()
			return nil, err
		}
		if w.Code != wire.CodeResumed || w.AckSeq != in.seeded() {
			is.close()
			return nil, fmt.Errorf("session %d resumed with %s at %d, want resumed at %d", s, w.Code, w.AckSeq, in.seeded())
		}
	}
	return is, nil
}

func (is *ingestServer) close() error {
	var first error
	for _, c := range is.conns {
		if _, err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := is.srv.Shutdown(ctx); err != nil && first == nil {
		first = err
	}
	if err := os.RemoveAll(is.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// countAll asks the server for the exact number of frames session c holds.
func countAll(c *wire.Client) (float64, error) {
	r, err := c.Query(wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 1e12})
	if err != nil {
		return 0, err
	}
	return r.Value, nil
}

func runIngest(cfg config) (*outcome, error) {
	in := newIngestInputs(cfg)
	seedDir := filepath.Join(cfg.workDir, "ingest-seed")
	if err := in.seedJournal(seedDir); err != nil {
		return nil, fmt.Errorf("seeding journal: %w", err)
	}
	var is *ingestServer
	o := &outcome{record: map[string]any{}}
	var err error
	dir := func(rep int) string { return filepath.Join(cfg.workDir, fmt.Sprintf("ingest-%d", rep)) }
	o.setupS, err = timeSetups(cfg,
		func(rep int) error { return copyDir(seedDir, dir(rep)) },
		func(rep int) (err error) { is, err = in.restart(dir(rep)); return err },
		func(int) error { return is.close() })
	if err != nil {
		return nil, err
	}

	m := newMeter(cfg.phase(), cfg.slices)
	sent := make([]uint64, ingestSessions)
	tallies := make([]tally, ingestSessions)
	var checked, wrong [ingestSessions]int64
	var wg sync.WaitGroup
	m.run()
	for s, c := range is.conns {
		wg.Add(1)
		go func(s int, c *wire.Client) {
			defer wg.Done()
			r := m.recorder()
			seq := in.seeded()
			var buf []stream.Frame
			for !m.over() {
				var last time.Time
				for k := 0; k < in.sz.flushEvery; k++ {
					buf = in.gloves[s].frames(buf, seq, in.sz.batch)
					last = time.Now()
					tallies[s].attempted += int64(len(buf))
					if err := c.SendBatch(buf); err != nil {
						tallies[s].errored += int64(len(buf))
						return
					}
					seq += uint64(len(buf))
					sent[s] += uint64(len(buf))
				}
				stored, err := c.Flush()
				end := time.Now()
				if err != nil {
					tallies[s].errored += int64(in.sz.flushEvery * in.sz.batch)
					return
				}
				// Every frame this connection sent is stored exactly once.
				checked[s]++
				if stored != sent[s] {
					wrong[s]++
				}
				r.book(end, int64(in.sz.flushEvery*in.sz.batch), float64(end.Sub(last))/1e6)
			}
		}(s, c)
	}
	wg.Wait()
	m.wait()
	o.phase = m.summarize()

	for s, c := range is.conns {
		o.tally.add(tallies[s])
		o.tally.shed += int64(c.ShedFrames())
		o.checked += checked[s]
		o.wrong += wrong[s]
		// Exactly once across the restart: the store holds the seeded
		// frames plus every frame sent, no more and no fewer.
		n, err := countAll(c)
		o.checked++
		if err != nil || n != float64(in.seeded()+sent[s]) {
			o.wrong++
			o.record[fmt.Sprintf("count_mismatch_%d", s)] = fmt.Sprintf("have %v want %d (%v)", n, in.seeded()+sent[s], err)
		}
		o.replayOps += int64(sent[s])
	}
	o.heapMB = liveHeapMB()
	o.record["seeded_frames_per_session"] = in.seeded()
	o.record["batch"], o.record["window"], o.record["flush_every"] = in.sz.batch, in.sz.window, in.sz.flushEvery
	if err := is.close(); err != nil {
		return nil, err
	}
	return o, nil
}

// replayIngest re-executes the ingest inputs layer by layer: recovery of
// the seeded journal, then for every batch the wire encode and decode, the
// WAL append, the live-store append and the periodic snapshot — the calls
// the server makes per batch, without its goroutine hop and queue. Both
// sessions' batch streams are interleaved round-robin.
func replayIngest(cfg config, tr *tracer, lim replayLimit) (*layerReport, error) {
	in := newIngestInputs(cfg)
	base := filepath.Join(cfg.workDir, fmt.Sprintf("ingest-replay-%t", tr.on))
	defer os.RemoveAll(base)
	if err := in.seedJournal(filepath.Join(base, "seed")); err != nil {
		return nil, err
	}
	dir := filepath.Join(base, "run")
	if err := copyDir(filepath.Join(base, "seed"), dir); err != nil {
		return nil, err
	}

	var journalBytes int64
	jcfg := journal.Config{Dir: dir, Fsync: journal.FsyncInterval,
		Observer: journal.Observer{AppendBytes: func(n int) { journalBytes += int64(n) }}}
	runtime.GC()
	rs := tr.begin("journal.recover", -1, -1)
	t0 := time.Now()
	mgr, err := journal.OpenManager(jcfg)
	if err != nil {
		return nil, err
	}
	if _, err := mgr.Recover(core.LiveStoreConfig{}); err != nil {
		return nil, err
	}
	recoverMS := float64(time.Since(t0)) / 1e6
	tr.end(rs, 1)

	sessions := make([]*journal.Session, ingestSessions)
	stores := make([]*core.LiveStore, ingestSessions)
	for s := range in.gloves {
		h := in.hello(s)
		js, ls, err := mgr.Attach(journal.Meta{Name: h.Name, Rate: h.Rate, Mins: h.Mins, Maxs: h.Maxs})
		if err != nil {
			return nil, err
		}
		if ls == nil || !js.Resumed() {
			return nil, fmt.Errorf("session %s did not resume from the journal", h.Name)
		}
		sessions[s], stores[s] = js, ls
	}
	defer func() {
		for _, js := range sessions {
			js.Close(nil)
		}
	}()

	width := len(in.gloves[0].mins)
	var frames, wireBytes int64
	var buf []stream.Frame
	seq := make([]uint64, ingestSessions)
	for s := range seq {
		seq[s] = in.seeded()
	}
	runtime.GC()
	start := time.Now()
	for op := int64(0); !lim.done(frames, start); op++ {
		s := int(op % ingestSessions)
		buf = in.gloves[s].frames(buf, seq[s], in.sz.batch)
		root := tr.begin("op", -1, op)

		sp := tr.begin("wire.encode", root, op)
		payload, err := wire.EncodeBatch(seq[s], buf, width)
		tr.end(sp, 1)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("wire.decode", root, op)
		b, err := wire.DecodeBatch(payload, width)
		tr.end(sp, 1)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("journal.append", root, op)
		sessions[s].AppendFrames(b.Frames, nil)
		tr.end(sp, int32(len(b.Frames)))
		sp = tr.begin("core.append", root, op)
		_, err = stores[s].AppendFrames(b.Frames)
		tr.end(sp, int32(len(b.Frames)))
		if err != nil {
			return nil, err
		}
		sp = tr.begin("journal.snapshot", root, op)
		if sessions[s].MaybeSnapshot(stores[s]) {
			tr.end(sp, 1)
		} else {
			tr.drop(sp)
		}
		tr.end(root, 1)

		seq[s] += uint64(len(buf))
		frames += int64(len(buf))
		wireBytes += int64(wire.MessageSize(len(payload)))
	}
	wall := time.Since(start)
	for s, ls := range stores {
		if want := int(seq[s]); ls.Frames() != want {
			return nil, fmt.Errorf("replayed store %d holds %d frames, want %d", s, ls.Frames(), want)
		}
	}

	st := tr.byName()
	perFrame := func(name string) float64 {
		if st[name] == nil {
			return 0
		}
		return st[name].total / 1e3 / float64(frames)
	}
	return &layerReport{
		ops:     frames,
		wall:    wall,
		layerNS: sumNS(st, "wire.encode", "wire.decode", "journal.append", "core.append", "journal.snapshot"),
		metrics: map[string]metric{
			"wire.encode_us_per_batch":    {st["wire.encode"].medianUS(), "us"},
			"wire.decode_us_per_batch":    {st["wire.decode"].medianUS(), "us"},
			"wire.bytes_per_frame":        {float64(wireBytes) / float64(frames), "B"},
			"journal.append_us_per_frame": {perFrame("journal.append"), "us"},
			"journal.bytes_per_frame":     {float64(journalBytes) / float64(frames), "B"},
			"journal.snapshot_ms":         {st["journal.snapshot"].medianUS() / 1e3, "ms"},
			"journal.recover_ms":          {recoverMS, "ms"},
			"core.append_us_per_frame":    {perFrame("core.append"), "us"},
		},
	}, nil
}
