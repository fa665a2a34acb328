package main

import (
	"encoding/json"
	"os"
	"testing"
)

// contract is the part of BENCHMARK.json the program must honour.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func smokeConfig(t *testing.T) config {
	return config{seed: 3, seconds: 1, slices: 2, setups: 2, warmups: 1, smoke: true,
		workDir: t.TempDir(), traceDir: t.TempDir()}
}

func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("reported %d metrics, the contract lists %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %s in %s, the contract says %s", w.Name, m.Unit, w.Unit)
		}
	}
}

// TestSmokeEndToEnd drives every workload with an end-to-end run on tiny
// inputs: each must complete ops, answer correctly and report every
// end-to-end metric of the contract.
func TestSmokeEndToEnd(t *testing.T) {
	c := readContract(t)
	for _, w := range workloads {
		if w.run == nil {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			o, err := w.run(smokeConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if o.phase.ops == 0 || o.checked == 0 {
				t.Fatalf("ops=%d checked=%d, want both > 0", o.phase.ops, o.checked)
			}
			if len(o.setupS) != 2 {
				t.Fatalf("%d setup timings, want 2", len(o.setupS))
			}
			res := e2eResult(o, map[string]any{})
			if !res.Correct || res.Failed != 0 || res.Attempted < o.phase.ops {
				t.Fatalf("result %+v (wrong=%d)", res, o.wrong)
			}
			if acc := res.Metrics["accuracy"].Value; acc <= 0 || acc > 1 {
				t.Fatalf("accuracy %v outside (0, 1]", acc)
			}
			checkMetrics(t, res.Metrics, c.EndToEnd)
		})
	}
}

// TestSmokeTraced runs the traced layer replay of all four input sets on
// tiny inputs and checks it reports every per-layer metric of the
// contract and writes its spans.
func TestSmokeTraced(t *testing.T) {
	c := readContract(t)
	cfg := smokeConfig(t)
	w, _ := findWorkload("query")
	rec := map[string]any{}
	res, err := traced(cfg, w, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 {
		t.Fatalf("result %+v", res)
	}
	checkMetrics(t, res.Metrics, c.PerLayer)
	files, err := os.ReadDir(cfg.traceDir)
	if err != nil || len(files) != len(workloads) {
		t.Fatalf("%d trace files (%v), want %d", len(files), err, len(workloads))
	}
	for _, x := range workloads {
		if n, _ := rec["spans_"+x.name].(int); n == 0 {
			t.Errorf("%s replay recorded no spans", x.name)
		}
	}
}
