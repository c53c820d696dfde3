package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

// declared is BENCHMARK.json as far as this test reads it.
type declared struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
	PerLayer  []metricDef                  `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// smallProfile shrinks the profile's units (blocks, chain population)
// so that a hundredth of a window is still several of them.
func smallProfile(t *testing.T) *profile {
	t.Helper()
	prof, err := loadProfile()
	if err != nil {
		t.Fatal(err)
	}
	for name, wl := range prof.Workloads {
		wl.BlockTxs = min(wl.BlockTxs, 32)
		wl.PreloadBlockTxs = min(wl.PreloadBlockTxs, 64)
		wl.Chains /= 8
		prof.Workloads[name] = wl
	}
	return prof
}

// smoke runs one workload at a hundredth of the profile's size.
func smoke(t *testing.T, prof *profile, name string, seed int64, trace bool) *report {
	t.Helper()
	wl := prof.Workloads[name]
	rep, err := runOne(prof, options{
		workload: name, seed: seed, seconds: prof.RunSeconds, trace: trace,
		n: wl.TxPerSecond * prof.RunSeconds / 100, setups: 1, reads: 200, probeInputs: 128,
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

// sameNames holds the declared list and the emitted set equal in both
// directions, with the declared unit on every emitted value.
func sameNames(t *testing.T, where string, want []metricDef, got map[string]value) {
	t.Helper()
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, d := range want {
		if seen[d.Name] {
			t.Errorf("%s: %s declared twice", where, d.Name)
		}
		seen[d.Name] = true
		if !valid.MatchString(d.Name) {
			t.Errorf("%s: %q is not a valid metric name", where, d.Name)
		}
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s was not emitted", where, d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("%s: %s emitted in %q, declared in %q", where, d.Name, v.Unit, d.Unit)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("%s: emitted metric %s is not declared", where, name)
		}
	}
}

// The program's metric tables and BENCHMARK.json say the same thing.
func TestDeclarationMatchesTables(t *testing.T) {
	d := loadDeclared(t)
	for _, c := range []struct {
		where string
		json  []metricDef
		table []metricDef
	}{{"end_to_end", d.EndToEnd, endToEnd}, {"per_layer", d.PerLayer, perLayer}} {
		if len(c.json) != len(c.table) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", c.where, len(c.json), len(c.table))
		}
		for i := range c.json {
			if c.json[i] != c.table[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", c.where, i, c.json[i], c.table[i])
			}
		}
	}
	if len(d.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program %d", len(d.Workloads), len(workloadNames))
	}
	for i, w := range d.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloadNames[i])
		}
	}
}

// Every workload, at 1/100 scale, passes its correctness gate and emits
// every declared name exactly once — end to end with tracing off, per
// layer with it on. Two traced runs of one seed agree on every count;
// another seed changes the input bytes.
func TestSmoke(t *testing.T) {
	prof := smallProfile(t)
	d := loadDeclared(t)
	counts := []string{
		"driver.commit_samples", "txn.input_bytes_per_tx", "server.sig_dedup_ratio",
		"keys.sig_dedup_ratio", "storage.wal_bytes_per_tx", "storage.wal_groups_per_ktx",
		"consensus.blocks", "consensus.msgs_per_tx", "nested.children_per_accept",
		"shard.twopc_docs", "query.samples",
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sameNames(t, name+" end_to_end", d.EndToEnd, smoke(t, prof, name, 1, false).Metrics)
			a := smoke(t, prof, name, 1, true)
			sameNames(t, name+" per_layer", d.PerLayer, a.Metrics)
			b := smoke(t, prof, name, 1, true)
			if a.Attempted != b.Attempted {
				t.Errorf("attempted %d then %d with one seed", a.Attempted, b.Attempted)
			}
			for _, c := range counts {
				if a.Metrics[c].Value != b.Metrics[c].Value {
					t.Errorf("%s: %v then %v with one seed", c, a.Metrics[c].Value, b.Metrics[c].Value)
				}
			}

			inputs := func(seed int64) []byte {
				g := newBench(name, prof.Workloads[name])
				g.generate(seed, 64)
				_, in := g.probeSet(1)
				return in[0]
			}
			if !bytes.Equal(inputs(1), inputs(1)) {
				t.Error("one seed generated two different inputs")
			}
			if bytes.Equal(inputs(1), inputs(2)) {
				t.Error("two seeds generated the same input")
			}
		})
	}
}
