package lwcomp_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"lwcomp"
	"lwcomp/internal/workload"
)

// formCacheTable writes a three-column container — sorted dates, a
// linear-trend column forced onto plus(linear, ns), and a random walk
// — and returns its bytes with each column's decoded values.
func formCacheTable(t *testing.T, n, bs int) ([]byte, map[string][]int64) {
	t.Helper()
	vals := map[string][]int64{}
	var cols []lwcomp.NamedColumn
	for _, c := range []struct {
		name   string
		data   []int64
		scheme lwcomp.Scheme
	}{
		{"date", workload.Sorted(n, 1<<40, 41), nil},
		{"trend", workload.TrendNoise(n, 3.25, 50, 42), lwcomp.LinearNS(128)},
		{"amount", workload.RandomWalk(n, 10, 1<<30, 43), nil},
	} {
		opts := []lwcomp.Option{lwcomp.WithBlockSize(bs), lwcomp.WithParallelism(1)}
		if c.scheme != nil {
			opts = append(opts, lwcomp.WithScheme(c.scheme))
		}
		col, err := lwcomp.Encode(c.data, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if vals[c.name], err = col.Decompress(); err != nil {
			t.Fatal(err)
		}
		cols = append(cols, lwcomp.NamedColumn{Name: c.name, Col: col})
	}
	var buf bytes.Buffer
	if err := lwcomp.WriteColumns(&buf, cols); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), vals
}

// TestWarmBlockFormAllocs: a block-cache hit hands back the cached
// decoded form itself — the same pointer every time, with no
// allocation, no copy and no re-decode.
func TestWarmBlockFormAllocs(t *testing.T) {
	data, _ := formCacheTable(t, 1<<14, 1<<12)
	tbl, err := lwcomp.OpenTableReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	lazy, err := tbl.Column("trend")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := lazy.BlockForm(1)
	if err != nil {
		t.Fatal(err)
	}
	mustZeroAllocs(t, "warm-block-form", func() {
		f, err := lazy.BlockForm(1)
		if err != nil {
			t.Fatal(err)
		}
		if f != warm {
			t.Fatal("cache hit returned a different form")
		}
	})
}

// TestConcurrentAggregateSharedForms runs fused aggregates from several
// goroutines over one container whose block cache holds about two
// blocks' forms, so cached forms are shared by concurrent readers while
// being evicted and re-decoded. Every answer must equal
// decompress-then-filter; -race checks that shared forms are only read.
func TestConcurrentAggregateSharedForms(t *testing.T) {
	const n, bs = 1 << 15, 1 << 11
	data, vals := formCacheTable(t, n, bs)
	budget := 2 * int64(len(data)) / int64(3*n/bs)
	tbl, err := lwcomp.OpenTableReader(bytes.NewReader(data), int64(len(data)),
		lwcomp.WithBlockCache(budget), lwcomp.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	date, trend, amount := vals["date"], vals["trend"], vals["amount"]

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 12; it++ {
				a := (w*7919 + it*104729) % n
				b := (a + n/3 + it*997) % n
				lo, hi := min(trend[a], trend[b]), max(trend[a], trend[b])
				expr := lwcomp.Range("trend", lo, hi)
				if it%2 == 1 {
					expr = lwcomp.And(expr, lwcomp.Range("date", date[n/5], date[4*n/5]))
				}
				var cnt, sumT, sumA int64
				for i := range trend {
					if trend[i] >= lo && trend[i] <= hi && (it%2 == 0 || (date[i] >= date[n/5] && date[i] <= date[4*n/5])) {
						cnt++
						sumT += trend[i]
						sumA += amount[i]
					}
				}
				got, err := tbl.Aggregate(context.Background(), expr, []string{"trend", "amount"}, lwcomp.ScanOptions{})
				if err != nil {
					errs <- err
					return
				}
				if got.Matched != cnt || got.Sums[0] != sumT || got.Sums[1] != sumA {
					errs <- fmt.Errorf("worker %d iter %d: Aggregate(%s) = %d %v, want %d [%d %d]",
						w, it, expr, got.Matched, got.Sums, cnt, sumT, sumA)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st, _ := mustColumn(t, tbl, "trend").CacheStats(); st.Evictions == 0 || st.BytesUsed > st.BytesBudget {
		t.Fatalf("cache never evicted or overran its budget: %+v", st)
	}
}

// TestSharedCacheStatsPerContainer: two containers on one shared block
// cache each report their own hits and misses through Column.CacheStats,
// while the shared cache pools both.
func TestSharedCacheStatsPerContainer(t *testing.T) {
	data, _ := formCacheTable(t, 1<<14, 1<<12)
	sc := lwcomp.NewSharedBlockCache(64 << 20)
	open := func() *lwcomp.Column {
		tbl, err := lwcomp.OpenTableReader(bytes.NewReader(data), int64(len(data)), lwcomp.WithSharedBlockCache(sc))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tbl.Close() })
		return mustColumn(t, tbl, "amount")
	}
	a, b := open(), open()
	touch := func(col *lwcomp.Column) {
		for i := 0; i < col.NumBlocks(); i++ {
			if _, err := col.BlockForm(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	touch(a)
	touch(a)
	touch(b)
	nb := int64(a.NumBlocks())
	for _, c := range []struct {
		name                 string
		col                  *lwcomp.Column
		wantHits, wantMisses int64
	}{{"a", a, nb, nb}, {"b", b, 0, nb}} {
		st, ok := c.col.CacheStats()
		if !ok || st.Hits != c.wantHits || st.Misses != c.wantMisses {
			t.Errorf("container %s: CacheStats = %+v (ok=%v), want %d hits and %d misses",
				c.name, st, ok, c.wantHits, c.wantMisses)
		}
	}
	if st := sc.Stats(); st.Hits != nb || st.Misses != 2*nb {
		t.Errorf("shared cache pooled %+v, want %d hits and %d misses", st, nb, 2*nb)
	}
}

// mustColumn returns the named column of tbl.
func mustColumn(t *testing.T, tbl *lwcomp.Table, name string) *lwcomp.Column {
	t.Helper()
	col, err := tbl.Column(name)
	if err != nil {
		t.Fatal(err)
	}
	return col
}
