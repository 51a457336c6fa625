package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"lwcomp"
	"lwcomp/internal/workload"
)

// scan-cold: the embedded library with one caller, scanning a container
// many times larger than its block-cache budget, so most block
// fetches miss and go to the file: read, CRC check, decode.

const (
	scanRows       = 1 << 21
	scanCacheBytes = 512 << 10
	scanTable      = "events"
	// scanPool is the number of distinct seeded scans; a run cycles
	// through them. Together they touch every block many times over,
	// so a cache of scanCacheBytes cannot hold the pool's working set.
	scanPool = 512
)

var scanNames = []string{"date", "amount", "status", "price", "fee"}

// genEvents builds the scanned table from the same seed-stable shapes
// as serve-mixed's orders: RLE, patch, dict, model and FOR columns.
func genEvents(seed int64, n int) source {
	return source{
		"date":   workload.OrderShipDates(n, 40, 19000, seed),
		"amount": workload.OutlierWalk(n, 50, 0.001, 1<<30, seed+1),
		"status": workload.LowCardinality(n, 8, seed+2),
		"price":  workload.TrendNoise(n, 2, 100, seed+3),
		"fee":    workload.TrendNoise(n, 0.5, 1000, seed+4),
	}
}

// scanQueries draws the pool: a 2% window at a random position of the
// sorted date column, and a predicate on amount or status. Even scans
// aggregate (count plus sums of amount and price); odd ones project fee.
func scanQueries(src source, n int, seed int64, count int) []*query {
	rng := rand.New(rand.NewSource(seed*104729 + 5))
	date, amountSorted := src["date"], sortedCopy(src["amount"])
	byFreq := byFrequency(src["status"])
	qs := make([]*query, count)
	for i := range qs {
		w := n / 50
		r := rng.Intn(n - w)
		win := rangePred{"date", date[r], date[r+w]}
		var second pred
		if rng.Intn(2) == 0 {
			p := rng.Float64() * 0.7
			second = rangePred{"amount", quantile(amountSorted, p), quantile(amountSorted, p+0.3)}
		} else {
			// Frequency ranks, as in serve-mixed, keep the cost
			// independent of the seed.
			second = inPred{"status", []int64{byFreq[1], byFreq[3]}}
		}
		q := &query{kind: "scan-aggregate", op: "sum", p: andPred{win, second}, cols: []string{"amount", "price"}}
		if i%2 == 1 {
			q = &query{kind: "scan-project", op: "rows", p: q.p, cols: []string{"fee"}}
		}
		q.want = solve(q, src, n, "date")
		qs[i] = q
	}
	return qs
}

func runScanCold(cfg config) (*runStats, error) {
	src := genEvents(cfg.seed, scanRows)
	pool := scanQueries(src, scanRows, cfg.seed, scanPool)
	exprs := make([]lwcomp.Expr, len(pool))
	for i, q := range pool {
		e, err := lwcomp.ParsePredicate(q.where())
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", q.where(), err)
		}
		exprs[i] = e
	}

	st := &runStats{user: int64(scanRows) * int64(len(scanNames)) * 8}
	rss := startRSS()
	defer rss.stop()
	// setup encodes and writes the table into a directory of its own and
	// opens it. The loop scans the first; the later repeats are timed
	// and thrown away.
	setup := func(i int) (tbl *lwcomp.Table, path string, cols map[string]*lwcomp.Column, err error) {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("scan-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, "", nil, err
		}
		path = filepath.Join(dir, scanTable+".lwc")
		err = st.timeSetup(func() error {
			var err error
			if cols, err = encodeTable(src, scanNames); err != nil {
				return err
			}
			if err := lwcomp.WriteColumnsFile(path, namedColumns(cols, scanNames)); err != nil {
				return err
			}
			tbl, err = lwcomp.OpenTable(path, lwcomp.WithBlockCache(scanCacheBytes))
			return err
		})
		return tbl, path, cols, err
	}
	tbl, path, cols, err := setup(0)
	if err != nil {
		return nil, err
	}
	defer tbl.Close()
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	st.stored = info.Size()

	ctx := context.Background()
	// Only the program's calls are timed; the loop runs until they have
	// taken the configured seconds, whatever the checks between them
	// cost.
	st.win = openWindow()
	next := 1
	for i := 0; st.win.wall < cfg.seconds; i++ {
		for ; setupDue(next, st.win.wall, cfg.seconds); next++ {
			extra, extraPath, _, err := setup(next)
			if err != nil {
				return nil, err
			}
			if err := errors.Join(extra.Close(), os.RemoveAll(filepath.Dir(extraPath))); err != nil {
				return nil, err
			}
		}
		q, e := pool[i%len(pool)], exprs[i%len(pool)]
		st.win.resume()
		start := time.Now()
		res, err := runScan(ctx, tbl, q, e)
		lat := time.Since(start)
		st.win.pause()
		if err == nil {
			err = res.check(q)
		}
		if res.scan != nil {
			// Releasing the scan is the program's work too, but it has
			// to wait until the check has read the scan's rows.
			st.win.resume()
			start = time.Now()
			res.scan.Release()
			lat += time.Since(start)
			st.win.pause()
		}
		st.attempted++
		st.latMS = append(st.latMS, ms(lat))
		if err != nil {
			st.fail(err)
		}
	}
	st.win.close()
	st.peakRSSMB = rss.stopMB()

	if cfg.trace {
		in := &probeInput{
			dir: filepath.Dir(path), table: scanTable, src: src, n: scanRows, sorted: "date",
			queries: pool[:64], cols: cols, names: scanNames, scratch: cfg.dir,
			opts: func() []lwcomp.Option { return []lwcomp.Option{lwcomp.WithBlockCache(scanCacheBytes)} },
		}
		if st.layers, err = probeLayers(in, st); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// scanned is one scan's raw result, checked after its timed span. A
// projecting scan is kept unreleased until then: its rows are the
// scan's own.
type scanned struct {
	matched    int64
	sums       []int64
	rows, vals []int64
	scan       *lwcomp.Scan
}

// runScan makes one scan's program calls: an aggregate (count plus
// sum), or a Scan projecting the query's column.
func runScan(ctx context.Context, tbl *lwcomp.Table, q *query, e lwcomp.Expr) (scanned, error) {
	if q.op == "sum" {
		res, err := tbl.Aggregate(ctx, e, q.cols, lwcomp.ScanOptions{})
		if err != nil {
			return scanned{}, fmt.Errorf("%s: %w", q.kind, err)
		}
		return scanned{matched: res.Matched, sums: res.Sums}, nil
	}
	scan, err := tbl.ScanContext(ctx, e)
	if err != nil {
		return scanned{}, fmt.Errorf("%s: %w", q.kind, err)
	}
	vals, err := scan.Materialize(q.cols[0])
	if err != nil {
		return scanned{scan: scan}, fmt.Errorf("%s: %w", q.kind, err)
	}
	return scanned{matched: int64(scan.Count()), rows: scan.Rows(), vals: vals, scan: scan}, nil
}

// check compares a scan's result with the oracle.
func (s scanned) check(q *query) error {
	if q.op == "sum" {
		return checkAggregate(q, s.matched, s.sums)
	}
	if len(s.rows) != len(s.vals) {
		return fmt.Errorf("%s: %d rows but %d projected values", q.kind, len(s.rows), len(s.vals))
	}
	h := hashSeed
	for i, r := range s.rows {
		h = hashStep(hashStep(h, r), s.vals[i])
	}
	return checkRows(q, s.matched, int64(len(s.rows)), h)
}

// namedColumns lists cols in names order for a container.
func namedColumns(cols map[string]*lwcomp.Column, names []string) []lwcomp.NamedColumn {
	out := make([]lwcomp.NamedColumn, len(names))
	for i, n := range names {
		out[i] = lwcomp.NamedColumn{Name: n, Col: cols[n]}
	}
	return out
}
