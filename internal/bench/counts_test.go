package bench

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/counts.golden")

// pullCells are the direction schedules the catalogue does not run but the
// engine supports: Julienne SSSP pulled every round and under the per-round
// hybrid, and GAPBS SSSP pulled, each at the dataset's tuned ∆.
var pullCells = []struct {
	name string
	fw   Framework
	dir  string
}{
	{"Julienne/pull", FwJulienne, "DensePull"},
	{"Julienne/hybrid", FwJulienne, "DensePull-SparsePush"},
	{"GAPBS/pull", FwGAPBS, "DensePull"},
}

// TestExactCountsGolden runs every supported catalogue cell of Table 4 at
// small scale on one worker, from each dataset's first query pair, and
// compares its exact work counts with testdata/counts.golden. Counts at
// Workers=1 are deterministic, so a change that alters any engine's work
// shows here row by row. Every cell is pinned: on one worker even the
// approximate engine drains its shared queue in one order. `go test
// ./internal/bench -update` rewrites the file.
func TestExactCountsGolden(t *testing.T) {
	ctx := context.Background()
	ds := must[[]*Dataset](t)(datasets(ScaleSmall, table4))
	var buf bytes.Buffer
	row := func(name string, c cell, d *Dataset) {
		q := pairs(d, 1)[0]
		c.sched = c.sched.ConfigNumWorkers(1)
		r := c.run(ctx, q[0], q[1])
		if r.Err != nil {
			t.Fatalf("%s: %v", name, r.Err)
		}
		s := r.Stats
		fmt.Fprintf(&buf, "%s rounds=%d relax=%d inserts=%d processed=%d windows=%d fused=%d pull=%d\n",
			name, s.Rounds, s.Relaxations, s.BucketInserts, s.Processed, s.WindowAdvances, s.FusedRounds, s.PullRounds)
	}
	for _, r := range table4Rows {
		for _, d := range ds {
			if r.class != "" && d.Class != r.class {
				continue
			}
			for _, fw := range Frameworks {
				c, ok := lookup(fw, r.alg, d)
				if !ok {
					continue
				}
				row(fmt.Sprintf("%s/%s/%s", r.alg, d.Name, fw), c, d)
			}
		}
	}
	for _, pc := range pullCells {
		for _, d := range ds {
			c, _ := lookup(pc.fw, SSSP, d)
			c.sched = c.sched.ConfigApplyDirection(pc.dir)
			row(fmt.Sprintf("%s/%s/%s", SSSP, d.Name, pc.name), c, d)
		}
	}
	golden := filepath.Join("testdata", "counts.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (rerun with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exact counts differ from %s.\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
	}
}
