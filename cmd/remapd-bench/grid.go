package main

import (
	"context"
	"fmt"
	"time"

	"remapd/internal/dataset"
	"remapd/internal/experiments"
	"remapd/internal/obs"
)

// defaultSeed is the seed the flag defaults to; heldOutSeed is the second
// seed whose outputs README.md records, which no tuning of this benchmark
// looked at.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// gridScale is the bench-scale configuration BenchmarkFig6PolicyComparison
// runs (vgg11, 320 training and 256 test images, 4 epochs), seeded from the
// benchmark's seed. Workers is left at the runner default (GOMAXPROCS).
func gridScale(seed uint64) experiments.Scale {
	s := experiments.QuickScale()
	s.Name = "bench"
	s.TrainN, s.TestN = 320, 256
	s.Epochs = 4
	s.Models = []string{"vgg11"}
	s.Seeds = []uint64{seed}
	return s
}

// gridCell is one (policy) cell's deterministic outcome.
type gridCell struct {
	Acc   float64
	Swaps int
}

// key renders the cell's outcome at full precision for exact comparison:
// accuracies are k/TestN, so the rendering is lossless.
func (c gridCell) key() string { return fmt.Sprintf("%.9f/%d", c.Acc, c.Swaps) }

// recordedGrid holds the Fig. 6 table for the default and held-out seeds,
// policy by policy in PolicyNames order (accuracies are correct answers out
// of the 256 test images). A change that moves any of these changed what the
// grid computes, not how fast.
var recordedGrid = map[uint64][]gridCell{
	defaultSeed: {{of256(252), 0}, {of256(178), 0}, {of256(226), 0}, {of256(156), 0},
		{of256(198), 0}, {of256(203), 20279}, {of256(204), 33826}, {of256(219), 10}},
	heldOutSeed: {{of256(251), 0}, {of256(202), 0}, {of256(144), 0}, {of256(202), 0},
		{of256(214), 0}, {of256(221), 19979}, {of256(212), 33444}, {of256(192), 13}},
}

func of256(k int) float64 { return float64(k) / 256 }

// gridSetup builds what a grid run needs before its first timed cell: the
// dataset every cell shares and one mapped network, which also proves the
// model fits the chip.
func gridSetup(seed uint64) (experiments.Scale, error) {
	s := gridScale(seed)
	ds := dataset.CIFAR10Like(s.TrainN, s.TestN, s.ImgSize, 77)
	if ds.TrainLen() != s.TrainN {
		return s, fmt.Errorf("dataset has %d training images, want %d", ds.TrainLen(), s.TrainN)
	}
	net, err := experiments.BuildModel("vgg11", s, seed, 10)
	if err != nil {
		return s, err
	}
	if err := experiments.NewChip(s).MapNetwork(net); err != nil {
		return s, err
	}
	return s, nil
}

// checkGrid applies the train-grid output checks to the table of the
// grid run with seed.
func checkGrid(b *bench, seed uint64, cells []gridCell) {
	names := experiments.PolicyNames()
	b.check(len(cells) == len(names), "grid has %d cells, want %d", len(cells), len(names))
	if len(cells) != len(names) {
		return
	}
	byName := map[string]gridCell{}
	for i, n := range names {
		byName[n] = cells[i]
	}
	// Remap-D beating no protection is the paper's claim, recorded for the
	// default seed. One bench-scale seed (256 test images, 4 epochs) does
	// not settle it: on the held-out seed none wins, so other seeds only
	// report the comparison.
	rd, none := byName["remap-d"].Acc, byName["none"].Acc
	if seed == defaultSeed {
		b.check(rd > none, "Remap-D accuracy %.4f does not beat none %.4f", rd, none)
	}
	b.logf("seed %d: remap-d %.4f vs none %.4f", seed, rd, none)
	want, ok := recordedGrid[seed]
	if !ok {
		return
	}
	for i, n := range names {
		b.check(cells[i].key() == want[i].key(), "seed %d grid cell %s = %s, recorded %s", seed, n, cells[i].key(), want[i].key())
	}
}

// fig6Cells runs experiments.Fig6 once and returns its table.
func fig6Cells(ctx context.Context, s experiments.Scale) ([]gridCell, error) {
	rows, err := experiments.Fig6(ctx, s, experiments.DefaultRegime(), nil)
	if err != nil {
		return nil, err
	}
	cells := make([]gridCell, len(rows))
	for i, r := range rows {
		cells[i] = gridCell{Acc: r.Accuracy, Swaps: r.Swaps}
	}
	return cells, nil
}

// cellRunSeconds reads each cell's execution time off the runner's own
// cell spans.
func cellRunSeconds(rec *obs.SpanRecorder) []float64 {
	var out []float64
	for _, sp := range rec.Spans() {
		run := 0.0
		for _, a := range sp.Attempts {
			run += a.RunSeconds
		}
		out = append(out, run)
	}
	return out
}

// minGrids is the fewest grids a train-grid run measures, so its medians
// are not decided by one grid a noisy neighbour slowed. Grid k runs with
// seed derivedSeed(--seed, k mod minGrids): the run's accuracy averages
// minGrids tables, and a grid past the first minGrids replays an earlier
// one.
const minGrids = 3

// runTrainGrid measures the Fig. 6 grid end to end: whole grids back to
// back until the next one would overrun --seconds, and at least minGrids.
// Throughput is training images per wall second of the median grid.
// Latency is a cell's execution time, read off the runner's cell spans:
// the median cell, and for the tail the median over grids of each grid's
// slowest cell (a run has too few cells for a p99 with ten beyond it).
// Accuracy is the mean over the cells of the first minGrids tables: the
// Remap-D cell alone swings from 0.60 to 0.90 between seeds at bench
// scale, and even one table's mean by a sixth.
func runTrainGrid(ctx context.Context, b *bench) error {
	s, err := timeSetup(b, func() (experiments.Scale, error) { return gridSetup(b.seed) })
	if err != nil {
		return err
	}
	if b.trace {
		return traceTrainGrid(ctx, b, s)
	}
	names := experiments.PolicyNames()
	var walls, allocs, cellSecs, slowest, accs []float64
	tables := map[uint64][]gridCell{}
	//lint:allow no-wall-clock benchmark harness: bounds the timed phase by --seconds
	begin := time.Now()
	for k := 0; ; k++ {
		seed := derivedSeed(b.seed, k%minGrids)
		s.Seeds = []uint64{seed}
		s.Spans = obs.NewSpanRecorder()
		a0 := allocMB()
		//lint:allow no-wall-clock benchmark harness: grid wall time is the measured metric
		t0 := time.Now()
		cells, err := fig6Cells(ctx, s)
		//lint:allow no-wall-clock benchmark harness: grid wall time is the measured metric
		wall := time.Since(t0).Seconds()
		b.attempted += int64(len(names))
		if err != nil {
			b.failed += int64(len(names))
			return err
		}
		walls = append(walls, wall)
		allocs = append(allocs, allocMB()-a0)
		cs := cellRunSeconds(s.Spans)
		b.check(len(cs) == len(names), "runner recorded %d cell spans, want %d", len(cs), len(names))
		cellSecs = append(cellSecs, cs...)
		slowest = append(slowest, maxOf(cs))
		b.logf("grid %d (seed %d): %.3f s, %.1f MB allocated, cells %.2f s", k+1, seed, wall, allocs[k], cs)
		if earlier, ok := tables[seed]; ok {
			for i := range cells {
				b.check(cells[i].key() == earlier[i].key(), "grid %d cell %s = %s, the earlier seed %d grid %s", k+1, names[i], cells[i].key(), seed, earlier[i].key())
			}
		} else {
			tables[seed] = cells
			checkGrid(b, seed, cells)
			for i, n := range names {
				b.logf("  %-10s acc %.4f swaps %d", n, cells[i].Acc, cells[i].Swaps)
				accs = append(accs, cells[i].Acc)
			}
		}
		//lint:allow no-wall-clock benchmark harness: bounds the timed phase by --seconds
		if k+1 >= minGrids && time.Since(begin).Seconds()+wall > b.seconds {
			break
		}
	}
	images := float64(len(names) * s.Epochs * s.TrainN)
	b.logf("%d grids, median %.3f s; %d cells, median %.3f s; slowest cell per grid %.3f s", len(walls), median(walls), len(cellSecs), median(cellSecs), slowest)
	b.set("throughput", "1/s", images/median(walls))
	b.set("latency_ms", "ms", median(cellSecs)*1e3)
	b.set("latency_tail_ms", "ms", median(slowest)*1e3)
	b.set("alloc_mb", "MB", median(allocs))
	b.set("accuracy", "ratio", sum(accs)/float64(len(accs)))
	return nil
}
