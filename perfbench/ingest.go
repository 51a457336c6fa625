package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"lwcomp"
	"lwcomp/internal/workload"
)

// ingest: the `lwc compress` write path with one caller. Each operation
// encodes one batch — one column of each of the paper's shapes, trend
// plus noise at two slopes — with
// the default analyzer and writes it with WriteColumnsFile, which
// fsyncs the file and its directory before returning.

const (
	ingestRows = 16384
	// ingestPool is the number of distinct seeded batches a run cycles
	// through.
	ingestPool = 8
	ingestFile = "batch.lwc"
)

var ingestNames = []string{"dates", "walk", "lowcard", "outliers", "trend", "slope", "step", "runs"}

// genBatch builds batch k of the pool. Every shape is non-negative, so
// the analyzer property against fixed NS applies to every column.
func genBatch(seed int64, k, n int) source {
	s := seed*1000 + int64(k)*10
	trend := workload.TrendNoise(n, 0.5, 1000, s+4)
	for i := range trend {
		trend[i] += 1000
	}
	slope := workload.TrendNoise(n, 2, 100, s+7)
	for i := range slope {
		slope[i] += 100
	}
	return source{
		"dates":    workload.OrderShipDates(n, 40, 19000+int64(k)*500, s),
		"slope":    slope,
		"walk":     workload.RandomWalk(n, 100, 1_000_000, s+1),
		"lowcard":  workload.LowCardinality(n, 8, s+2),
		"outliers": workload.OutlierWalk(n, 50, 0.001, 1<<40, s+3),
		"trend":    trend,
		"step":     workload.StepData(n, 1000, s+5),
		"runs":     workload.Runs(n, 20, 50, s+6),
	}
}

// ingestBatch is the timed operation: encode every column, write the
// container atomically and durably.
func ingestBatch(path string, b source) (map[string]*lwcomp.Column, error) {
	cols, err := encodeTable(b, ingestNames)
	if err != nil {
		return nil, err
	}
	return cols, lwcomp.WriteColumnsFile(path, namedColumns(cols, ingestNames))
}

// checkIngest reopens the written container and compares every column
// value for value with its batch, and checks the analyzer property:
// the default analyzer trial-encodes the candidate with the best exact
// size estimate, and NS has an exact estimate, so no non-negative
// column may come out larger than it does under fixed NS.
func checkIngest(path string, b source, cols map[string]*lwcomp.Column) error {
	tbl, err := lwcomp.OpenTable(path)
	if err != nil {
		return fmt.Errorf("reopening batch: %w", err)
	}
	defer tbl.Close()
	for _, name := range ingestNames {
		c, err := tbl.Column(name)
		if err != nil {
			return err
		}
		got, err := c.Decompress()
		if err != nil {
			return fmt.Errorf("decompressing %s: %w", name, err)
		}
		if !slices.Equal(got, b[name]) {
			return fmt.Errorf("column %s does not round-trip", name)
		}
		if !nonNegative(b[name]) {
			continue
		}
		ns, err := lwcomp.Encode(b[name], lwcomp.WithBlockSize(lwcomp.DefaultBlockSize), lwcomp.WithScheme(lwcomp.NS()))
		if err != nil {
			return fmt.Errorf("encoding %s with ns: %w", name, err)
		}
		if def, fixed := cols[name].EncodedBits(), ns.EncodedBits(); def > fixed {
			return fmt.Errorf("column %s: default analyzer chose %d bits, fixed ns gives %d", name, def, fixed)
		}
	}
	return nil
}

func runIngest(cfg config) (*runStats, error) {
	pool := make([]source, ingestPool)
	for k := range pool {
		pool[k] = genBatch(cfg.seed, k, ingestRows)
	}
	batchBytes := int64(ingestRows) * int64(len(ingestNames)) * 8

	// Set-up is a warm-up: two passes over the pool into a directory of
	// its own, so the analyzer's and writer's pooled buffers exist
	// before the loop.
	st := &runStats{}
	rss := startRSS()
	defer rss.stop()
	setup := func(i int) error {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("ingest-setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		err := st.timeSetup(func() error {
			for k := 0; k < 2*len(pool); k++ {
				if _, err := ingestBatch(filepath.Join(dir, fmt.Sprintf("batch-%d.lwc", k)), pool[k%len(pool)]); err != nil {
					return err
				}
			}
			return nil
		})
		return errors.Join(err, os.RemoveAll(dir))
	}
	if err := setup(0); err != nil {
		return nil, err
	}

	dir := filepath.Join(cfg.dir, "ingest")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, ingestFile)
	// byBatch keeps each pool batch's latest encoding for the traced
	// run's decode and encode probes.
	byBatch := make([]map[string]*lwcomp.Column, len(pool))
	var last map[string]*lwcomp.Column
	// Only the batches are timed; the loop runs until they have taken
	// the configured seconds, whatever the checks between them cost.
	st.win = openWindow()
	next := 1
	for k := 0; st.win.wall < cfg.seconds; k++ {
		for ; setupDue(next, st.win.wall, cfg.seconds); next++ {
			if err := setup(next); err != nil {
				return nil, err
			}
		}
		b := pool[k%len(pool)]
		st.win.resume()
		start := time.Now()
		cols, err := ingestBatch(path, b)
		lat := time.Since(start)
		st.win.pause()
		st.attempted++
		st.latMS = append(st.latMS, ms(lat))
		if err == nil {
			err = checkIngest(path, b, cols)
		}
		if err != nil {
			st.fail(err)
			continue
		}
		info, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		st.stored += info.Size()
		st.user += batchBytes
		last, byBatch[k%len(pool)] = cols, cols
	}
	st.win.close()
	st.peakRSSMB = rss.stopMB()
	if st.user == 0 {
		return nil, fmt.Errorf("every batch failed")
	}

	if cfg.trace {
		lastK := int((st.attempted - 1) % int64(len(pool)))
		b := pool[lastK]
		rng := rand.New(rand.NewSource(cfg.seed))
		in := &probeInput{
			dir: dir, table: "batch", src: b, n: ingestRows, sorted: "dates",
			queries: batchQueries(b, rng), cols: last, names: ingestNames, scratch: cfg.dir,
			opts: func() []lwcomp.Option { return nil },
		}
		for k, cols := range byBatch {
			if k == lastK || cols == nil {
				continue
			}
			for _, name := range ingestNames {
				in.encoded = append(in.encoded, encodedColumn{name, cols[name], pool[k][name]})
			}
		}
		var err error
		if st.layers, err = probeLayers(in, st); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// batchQueries are the traced run's probe queries over one written
// batch: a range count on every column, date-window sums, and a small
// projection.
func batchQueries(b source, rng *rand.Rand) []*query {
	n := len(b["dates"])
	var qs []*query
	for _, name := range ingestNames {
		s := sortedCopy(b[name])
		p := rng.Float64() * 0.5
		qs = append(qs, &query{kind: "batch-count", op: "count",
			p: rangePred{name, quantile(s, p), quantile(s, p+0.3)}})
		r := rng.Intn(n / 2)
		qs = append(qs, &query{kind: "batch-sum", op: "sum",
			p: rangePred{"dates", b["dates"][r], b["dates"][r+n/4]}, cols: []string{name}})
	}
	r := rng.Intn(n / 2)
	qs = append(qs, &query{kind: "batch-rows", op: "rows",
		p: rangePred{"dates", b["dates"][r], b["dates"][r+n/8]}, cols: []string{"walk", "runs"}, limit: 50})
	for _, q := range qs {
		q.want = solve(q, b, n, "dates")
	}
	return qs
}
