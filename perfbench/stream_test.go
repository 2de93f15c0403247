package main

import "testing"

func collect(wl *workload, seed uint64, n int) [][]op {
	var out [][]op
	for _, s := range wl.streams(seed, wl.workers) {
		ops := make([]op, n)
		for i := range ops {
			ops[i] = s.next()
		}
		out = append(out, ops)
	}
	return out
}

func TestSameSeedSameOpStream(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		a, b, c := collect(wl, 11, 50_000), collect(wl, 11, 50_000), collect(wl, 12, 50_000)
		differs := false
		for w := range a {
			for k := range a[w] {
				if a[w][k] != b[w][k] {
					t.Fatalf("%s worker %d op %d: %v vs %v with the same seed", wl.name, w, k, a[w][k], b[w][k])
				}
				differs = differs || a[w][k] != c[w][k]
			}
		}
		if !differs {
			t.Errorf("%s: seeds 11 and 12 give the same op stream", wl.name)
		}
	}
}

func TestEveryLineHasOneWriter(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		writer := map[uint64]int{}
		for w, ops := range collect(wl, 3, 100_000) {
			for _, o := range ops {
				if o.line >= dataLines {
					t.Fatalf("%s: line %d out of range", wl.name, o.line)
				}
				if o.kind != opWrite {
					continue
				}
				if prev, ok := writer[o.line]; ok && prev != w {
					t.Fatalf("%s: line %d written by workers %d and %d", wl.name, o.line, prev, w)
				}
				writer[o.line] = w
			}
		}
	}
}

func TestEngineIngestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full dataset twice")
	}
	wl := findWorkload("engine-ingest")
	a, err := runFixed(wl, 5, 50_000, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := runFixed(wl, 5, 50_000, "")
	if err != nil {
		t.Fatal(err)
	}
	if a.d.st != b.d.st || a.d.dimmR != b.d.dimmR || a.d.dimmW != b.d.dimmW {
		t.Fatalf("same seed, different counts:\n%+v dimm %d/%d\n%+v dimm %d/%d", a.d.st, a.d.dimmR, a.d.dimmW, b.d.st, b.d.dimmR, b.d.dimmW)
	}
	if a.d.st.ReadEscalations == 0 || a.d.st.MetaWritebacks == 0 {
		t.Fatalf("engine-ingest should escalate reads and write metadata back: %+v", a.d.st)
	}
}
