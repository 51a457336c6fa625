package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"lwcomp"
	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
	"lwcomp/internal/server"
)

// The traced run's layer probes. After the workload's own loop, they
// replay its operations, and the calls beneath them, through each
// module's exported functions with every call timed on its own. Nothing
// inside the program is instrumented.

// probeInput is what a workload hands the probes: where its containers
// are, the source arrays they hold, the operations to replay, and the
// in-memory columns its set-up encoded.
type probeInput struct {
	dir, table string
	src        source
	n          int
	sorted     string
	queries    []*query
	// cols are the table's columns as the workload encoded them;
	// encoded adds any other columns it encoded (ingest's earlier
	// batches), which the decode and encode probes also time.
	cols    map[string]*lwcomp.Column
	encoded []encodedColumn
	names   []string
	// perColumnFiles says the table is stored as <table>.<column>.lwc
	// files rather than one <table>.lwc container.
	perColumnFiles bool
	// opts gives the open options of the workload's block cache, fresh
	// for every open so no probe inherits another's cache.
	opts func() []lwcomp.Option
	// warm runs one untimed pass before timing, as the workload's own
	// set-up does.
	warm    bool
	scratch string
}

// encodedColumn is an in-memory column with the values it encodes.
type encodedColumn struct {
	name string
	col  *lwcomp.Column
	src  []int64
}

// allEncoded lists the table's columns and then in.encoded.
func (in *probeInput) allEncoded() []encodedColumn {
	out := make([]encodedColumn, 0, len(in.names)+len(in.encoded))
	for _, name := range in.names {
		out = append(out, encodedColumn{name, in.cols[name], in.src[name]})
	}
	return append(out, in.encoded...)
}

// families groups root schemes into the families decode speed is
// reported by.
var families = map[string]string{
	"rle": "rle", "rpe": "rle",
	"dict":  "dict",
	"for":   "for",
	"delta": "delta",
	"plus":  "model", "linear": "model", "poly2": "model", "step": "model",
	"patch": "patch",
	"ns":    "plain", "vns": "plain", "varint": "plain", "elias": "plain", "id": "plain", "const": "plain",
}

// familyNames are the families block counts are reported for;
// decodeFamilies those decode speed is, the ones every workload's
// shapes produce.
var (
	familyNames    = []string{"rle", "dict", "for", "delta", "model", "patch", "plain"}
	decodeFamilies = []string{"rle", "dict", "for", "model", "patch"}
)

// probePasses is how many times each replayed operation is timed; the
// reported figures are medians over all passes.
const probePasses = 3

func probeLayers(in *probeInput, st *runStats) (map[string]float64, error) {
	L := map[string]float64{
		"go.alloc_bytes_per_op": st.win.gc.allocBytes / float64(st.attempted),
		"go.gc_cpu_fraction":    st.win.gc.gcCPU / st.win.gc.totalCPU,
	}
	var qs []*query
	for _, q := range in.queries {
		// The overflow sums are already judged in the workload loop.
		if !q.want.overflow {
			qs = append(qs, q)
		}
	}
	steps := []func() error{
		func() error { return probeServer(in, qs, L, st) },
		func() error { return probeTable(in, qs, L, st) },
		func() error { return probeFetch(in, L) },
		func() error { return probeWrite(in, L) },
		func() error { return probeSchemes(in, L, st) },
		func() error { return probeBitpack(in, L) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return L, nil
}

// probeServer replays the queries one at a time through lwcd mounted on
// the workload's directory. Server self time is the client round trip
// minus the response's own elapsed_ms.
func probeServer(in *probeInput, qs []*query, L map[string]float64, st *runStats) error {
	d, err := startLwcd(server.Config{Dir: in.dir})
	if err != nil {
		return err
	}
	defer d.close()
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		bodies[i] = requestBody(in.table, q)
		if _, _, err := d.post(bodies[i]); err != nil {
			return err
		}
	}
	var self, elapsed []float64
	var respBytes float64
	for pass := 0; pass < probePasses; pass++ {
		for i, q := range qs {
			start := time.Now()
			status, body, err := d.post(bodies[i])
			rt := ms(time.Since(start))
			if err := checkExchange(q, exchange{status: status, body: body, err: err}); err != nil {
				st.fail(err)
				continue
			}
			e, err := elapsedMS(body)
			if err != nil {
				return fmt.Errorf("%s: %w", q.kind, err)
			}
			self = append(self, rt-e)
			elapsed = append(elapsed, e)
			respBytes += float64(len(body))
		}
	}
	L["server.self_ms_p50"] = median(self)
	L["server.elapsed_ms_p50"] = median(elapsed)
	L["server.response_bytes_per_query"] = respBytes / float64(len(self))
	L["server.queued_per_query"] = 0
	return nil
}

// elapsedMS reads the server-side query time from a response: the
// object of a count or sum, or the last frame of a rows stream.
func elapsedMS(body []byte) (float64, error) {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var v struct {
		ElapsedMS *float64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &v); err != nil {
		return 0, err
	}
	if v.ElapsedMS == nil {
		return 0, errors.New("response carries no elapsed_ms")
	}
	return *v.ElapsedMS, nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.ReaderAt
	n *atomic.Int64
}

func (c countingReader) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

// openCounted opens the workload's table through counting readers. The
// table does not own the files under a reader, so close closes both.
func openCounted(in *probeInput) (tbl *lwcomp.Table, read *atomic.Int64, close func() error, err error) {
	read = new(atomic.Int64)
	var files []io.Closer
	closeFiles := func() error { return closeAll(files) }
	open := func(path string) (countingReader, int64, error) {
		f, err := os.Open(path)
		if err != nil {
			return countingReader{}, 0, err
		}
		files = append(files, f)
		info, err := f.Stat()
		if err != nil {
			return countingReader{}, 0, err
		}
		return countingReader{f, read}, info.Size(), nil
	}
	if in.perColumnFiles {
		var cols []lwcomp.NamedColumn
		shared := in.opts()
		for _, name := range in.names {
			r, size, err := open(filepath.Join(in.dir, in.table+"."+name+".lwc"))
			if err != nil {
				return nil, nil, nil, errors.Join(err, closeFiles())
			}
			c, err := lwcomp.OpenReader(r, size, shared...)
			if err != nil {
				return nil, nil, nil, errors.Join(err, closeFiles())
			}
			cols = append(cols, lwcomp.NamedColumn{Name: name, Col: c})
		}
		tbl, err = lwcomp.NewTable(cols)
	} else {
		r, size, err := open(filepath.Join(in.dir, in.table+".lwc"))
		if err != nil {
			return nil, nil, nil, errors.Join(err, closeFiles())
		}
		tbl, err = lwcomp.OpenTableReader(r, size, in.opts()...)
	}
	if err != nil {
		return nil, nil, nil, errors.Join(err, closeFiles())
	}
	return tbl, read, func() error { return errors.Join(tbl.Close(), closeFiles()) }, nil
}

func closeAll(cs []io.Closer) error {
	var errs []error
	for _, c := range cs {
		errs = append(errs, c.Close())
	}
	return errors.Join(errs...)
}

// cacheTotals sums the block-cache counters of a table's columns.
func cacheTotals(tbl *lwcomp.Table, names []string) (hits, misses, evictions int64) {
	for _, name := range names {
		c, err := tbl.Column(name)
		if err != nil {
			continue
		}
		if cs, ok := c.CacheStats(); ok {
			hits += cs.Hits
			misses += cs.Misses
			evictions += cs.Evictions
		}
	}
	return
}

// probeTable replays the queries in process: ParsePredicate, then the
// fused Aggregate for counts and sums, or Scan plus StreamBatches for
// projections, each timed alone, with the planner, cache and read
// counters taken around every call.
func probeTable(in *probeInput, qs []*query, L map[string]float64, st *runStats) error {
	tbl, read, closeTbl, err := openCounted(in)
	if err != nil {
		return err
	}
	defer closeTbl()
	ctx := context.Background()
	matchBlocks := make([]int64, len(qs))
	for i, q := range qs {
		matchBlocks[i] = blocksWithMatch(q, in.src, in.n, in.sorted)
	}
	if in.warm {
		for _, q := range qs {
			if _, err := execInProcess(ctx, tbl, q); err != nil {
				st.fail(err)
			}
		}
	}
	var parseUS, aggUS, rowsUS []float64
	var skipped, proved, fetched, useful, ops int64
	var hits, misses, evictions int64
	read.Store(0)
	for pass := 0; pass < probePasses; pass++ {
		for i, q := range qs {
			start := time.Now()
			if _, err := parseWhere(q.where()); err != nil {
				return err
			}
			parseUS = append(parseUS, float64(time.Since(start).Nanoseconds())/1e3)

			c0 := tbl.ScanCounters()
			h0, m0, e0 := cacheTotals(tbl, in.names)
			lat, err := execInProcess(ctx, tbl, q)
			c1 := tbl.ScanCounters()
			h1, m1, e1 := cacheTotals(tbl, in.names)
			if err != nil {
				st.fail(err)
				continue
			}
			if q.op == "rows" {
				rowsUS = append(rowsUS, float64(lat.Nanoseconds())/1e3)
			} else {
				aggUS = append(aggUS, float64(lat.Nanoseconds())/1e3)
			}
			ops++
			skipped += c1.Skipped - c0.Skipped
			proved += c1.Proved - c0.Proved
			fetched += c1.Fetched - c0.Fetched
			// Skipped blocks hold no match and proved ones are not
			// fetched, so the fetched blocks holding a match are the
			// matching blocks the stats did not prove.
			useful += matchBlocks[i] - (c1.Proved - c0.Proved)
			hits, misses, evictions = hits+h1-h0, misses+m1-m0, evictions+e1-e0
		}
	}
	if ops == 0 {
		return errors.New("every replayed query failed")
	}
	L["table.parse_us"] = median(parseUS)
	L["table.aggregate_us_p50"] = median(aggUS)
	L["table.rows_us_p50"] = median(rowsUS)
	L["table.blocks_skipped_per_query"] = float64(skipped) / float64(ops)
	L["table.blocks_proved_per_query"] = float64(proved) / float64(ops)
	L["table.blocks_fetched_per_query"] = float64(fetched) / float64(ops)
	L["table.useful_fetch_ratio"] = 1
	if fetched > 0 {
		L["table.useful_fetch_ratio"] = float64(useful) / float64(fetched)
	}
	L["storage.cache_hit_rate"] = 0
	if hits+misses > 0 {
		L["storage.cache_hit_rate"] = float64(hits) / float64(hits+misses)
	}
	L["storage.cache_evictions_per_query"] = float64(evictions) / float64(ops)
	L["storage.read_bytes_per_query"] = float64(read.Load()) / float64(ops)
	return nil
}

func parseWhere(where string) (lwcomp.Expr, error) {
	if where == "" {
		return lwcomp.And(), nil
	}
	return lwcomp.ParsePredicate(where)
}

// execInProcess runs q on tbl, timing only the program's calls, and
// then checks the answer.
func execInProcess(ctx context.Context, tbl *lwcomp.Table, q *query) (time.Duration, error) {
	e, err := parseWhere(q.where())
	if err != nil {
		return 0, err
	}
	if q.op != "rows" {
		var cols []string
		if q.op == "sum" {
			cols = q.cols
		}
		start := time.Now()
		res, err := tbl.Aggregate(ctx, e, cols, lwcomp.ScanOptions{})
		lat := time.Since(start)
		if err != nil {
			return lat, fmt.Errorf("%s: %w", q.kind, err)
		}
		return lat, checkAggregate(q, res.Matched, res.Sums)
	}
	// The callback only copies what it is handed; the copies are hashed
	// and checked after the timed span.
	errLimit := errors.New("limit reached")
	var rows []int64
	vals := make([][]int64, len(q.cols))
	start := time.Now()
	scan, err := tbl.ScanContext(ctx, e)
	if err != nil {
		return time.Since(start), fmt.Errorf("%s: %w", q.kind, err)
	}
	defer scan.Release()
	err = scan.StreamBatches(ctx, q.cols, 4096, func(batch []int64, cols [][]int64) error {
		n := len(batch)
		if q.limit > 0 {
			n = min(n, int(q.limit)-len(rows))
		}
		rows = append(rows, batch[:n]...)
		for c, col := range cols {
			vals[c] = append(vals[c], col[:n]...)
		}
		if q.limit > 0 && int64(len(rows)) >= q.limit {
			return errLimit
		}
		return nil
	})
	matched := int64(scan.Count())
	lat := time.Since(start)
	if err != nil && !errors.Is(err, errLimit) {
		return lat, fmt.Errorf("%s: %w", q.kind, err)
	}
	h := hashSeed
	for i, r := range rows {
		h = hashStep(h, r)
		for _, col := range vals {
			h = hashStep(h, col[i])
		}
	}
	return lat, checkRows(q, matched, int64(len(rows)), h)
}

// blocksWithMatch counts the row blocks (DefaultBlockSize rows each)
// holding at least one row q matches, from the source arrays.
func blocksWithMatch(q *query, src source, n int, sorted string) int64 {
	bs := lwcomp.DefaultBlockSize
	if q.p == nil {
		return int64((n + bs - 1) / bs)
	}
	lo, hi := rowWindow(q.p, src[sorted], sorted, n)
	match := q.p.bind(src)
	var blocks int64
	for r := lo; r < hi; r++ {
		if match(r) {
			blocks++
			r = (r/bs+1)*bs - 1
		}
	}
	return blocks
}

// probeFetch times Column.BlockForm on every block of a freshly opened
// table: the first fetch misses the cache (read, CRC check, decode of
// the index entry's payload), the second hits it.
func probeFetch(in *probeInput, L map[string]float64) error {
	tbl, _, closeTbl, err := openCounted(in)
	if err != nil {
		return err
	}
	defer closeTbl()
	var miss, hit []float64
	for _, name := range in.names {
		c, err := tbl.Column(name)
		if err != nil {
			return err
		}
		for i := 0; i < c.NumBlocks(); i++ {
			start := time.Now()
			if _, err := c.BlockForm(i); err != nil {
				return fmt.Errorf("%s block %d: %w", name, i, err)
			}
			miss = append(miss, float64(time.Since(start).Nanoseconds())/1e3)
			start = time.Now()
			if _, err := c.BlockForm(i); err != nil {
				return fmt.Errorf("%s block %d: %w", name, i, err)
			}
			hit = append(hit, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	L["storage.fetch_miss_us_per_block"] = median(miss)
	L["storage.fetch_hit_us_per_block"] = median(hit)
	return nil
}

// probeWrite times WriteColumnsFile on the workload's encoded columns.
func probeWrite(in *probeInput, L map[string]float64) error {
	path := filepath.Join(in.scratch, "probe-write.lwc")
	defer os.Remove(path)
	var perMB []float64
	for pass := 0; pass < probePasses; pass++ {
		start := time.Now()
		if err := lwcomp.WriteColumnsFile(path, namedColumns(in.cols, in.names)); err != nil {
			return err
		}
		d := ms(time.Since(start))
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		perMB = append(perMB, d/(float64(info.Size())/1e6))
	}
	L["storage.write_ms_per_mb"] = median(perMB)
	return nil
}

// maxProbeBlocks bounds the blocks per column the encode-side probes
// re-encode, spread evenly over the column.
const maxProbeBlocks = 16

// probeSchemes times, block by block: decode (DecompressBlock) grouped
// by the block's scheme family, statistics collection, and encode with
// the default analyzer against encode with the scheme it chose fixed.
func probeSchemes(in *probeInput, L map[string]float64, st *runStats) error {
	decNS := map[string]float64{}
	decVals := map[string]float64{}
	blocks := map[string]float64{}
	var statsNS, defNS, fixNS, encVals float64
	for _, ec := range in.allEncoded() {
		name, c := ec.name, ec.col
		step := max(1, len(c.Blocks)/maxProbeBlocks)
		for i := range c.Blocks {
			b := &c.Blocks[i]
			fam, ok := families[b.Form.Scheme]
			if !ok {
				return fmt.Errorf("scheme %q has no family", b.Form.Scheme)
			}
			blocks[fam]++
			want := ec.src[b.Start : b.Start+int64(b.Count)]
			dst := make([]int64, b.Count)
			var runs []float64
			for pass := 0; pass < probePasses; pass++ {
				start := time.Now()
				if err := c.DecompressBlock(i, dst); err != nil {
					return fmt.Errorf("%s block %d: %w", name, i, err)
				}
				runs = append(runs, float64(time.Since(start).Nanoseconds()))
			}
			if !slices.Equal(dst, want) {
				st.fail(fmt.Errorf("%s block %d decodes wrong", name, i))
			}
			decNS[fam] += median(runs)
			decVals[fam] += float64(b.Count)
			if i%step != 0 {
				continue
			}

			start := time.Now()
			core.CollectStats(want, nil)
			statsNS += float64(time.Since(start).Nanoseconds())

			start = time.Now()
			_, err := lwcomp.Encode(want, lwcomp.WithBlockSize(len(want)), lwcomp.WithParallelism(1))
			defNS += float64(time.Since(start).Nanoseconds())
			if err != nil {
				return err
			}
			sch, err := chosenScheme(want)
			if err != nil {
				return err
			}
			start = time.Now()
			if _, err := lwcomp.Encode(want, lwcomp.WithBlockSize(len(want)), lwcomp.WithParallelism(1), lwcomp.WithScheme(sch)); err != nil {
				return err
			}
			fixNS += float64(time.Since(start).Nanoseconds())
			encVals += float64(len(want))
		}
	}
	for _, fam := range familyNames {
		L["scheme.blocks."+fam] = blocks[fam]
	}
	for _, fam := range decodeFamilies {
		if decVals[fam] == 0 {
			return fmt.Errorf("no block of the %s family to time decode on", fam)
		}
		L["scheme.decode_ns_per_value."+fam] = decNS[fam] / decVals[fam]
	}
	L["core.stats_ns_per_value"] = statsNS / encVals
	L["core.analyze_ns_per_value"] = (defNS - fixNS) / encVals
	L["scheme.encode_ns_per_value"] = fixNS / encVals
	return nil
}

// composites maps the analyzer's descriptions of model-plus-residual
// and patched candidates, which ParseScheme does not accept, to the
// constructors that build them.
var composites = []struct {
	re  *regexp.Regexp
	new func(segLen int) lwcomp.Scheme
}{
	{regexp.MustCompile(`^patch\(for\[(\d+)\]\+ns\)$`), lwcomp.PFOR},
	{regexp.MustCompile(`^plus\(linear\[(\d+)\], ns\)$`), lwcomp.LinearNS},
	{regexp.MustCompile(`^plus\(step\[(\d+)\], ns\)$`), lwcomp.StepNS},
	{regexp.MustCompile(`^plus\(poly2\[(\d+)\], ns\)$`), lwcomp.Poly2NS},
	{regexp.MustCompile(`^patch\(linear\[(\d+)\]\+ns\)$`), lwcomp.PatchedLinearNS},
}

// chosenScheme returns the scheme the default analyzer picks for src.
func chosenScheme(src []int64) (lwcomp.Scheme, error) {
	ch, err := lwcomp.CompressBestChoice(src)
	if err != nil {
		return nil, err
	}
	if sch, err := lwcomp.ParseScheme(ch.Desc); err == nil {
		return sch, nil
	}
	for _, c := range composites {
		if m := c.re.FindStringSubmatch(ch.Desc); m != nil {
			segLen, err := strconv.Atoi(m[1])
			if err != nil {
				return nil, err
			}
			return c.new(segLen), nil
		}
	}
	return nil, fmt.Errorf("no way to build the analyzer's choice %q as a fixed scheme", ch.Desc)
}

// probeBitpack times the bit-packing kernels at the widths the
// workload's NS leaves use, weighting each width by the values stored
// at it.
func probeBitpack(in *probeInput, L map[string]float64) error {
	widths := map[uint]float64{}
	for _, ec := range in.allEncoded() {
		for i := range ec.col.Blocks {
			err := ec.col.Blocks[i].Form.Walk(func(f *core.Form) error {
				if w := f.Params["width"]; f.Scheme == "ns" && w > 0 && w <= 64 {
					widths[uint(w)] += float64(f.N)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	if len(widths) == 0 {
		widths[20] = 1
	}
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	src := make([]uint64, n)
	dst := make([]uint64, n)
	var pack, unpack, count, weight float64
	for w, wt := range widths {
		mask := ^uint64(0) >> (64 - w)
		for i := range src {
			src[i] = rng.Uint64() & mask
		}
		packed := make([]uint64, bitpack.PackedWords(n, w))
		var p, u, c []float64
		for pass := 0; pass < probePasses; pass++ {
			start := time.Now()
			if err := bitpack.PackInto(packed, src, w); err != nil {
				return err
			}
			p = append(p, float64(time.Since(start).Nanoseconds())/n)
			start = time.Now()
			if err := bitpack.UnpackInto(dst, packed, w); err != nil {
				return err
			}
			u = append(u, float64(time.Since(start).Nanoseconds())/n)
			start = time.Now()
			if _, err := bitpack.CountRangeU(packed, 0, n, w, mask/4, mask/2); err != nil {
				return err
			}
			c = append(c, float64(time.Since(start).Nanoseconds())/n)
		}
		if !slices.Equal(src, dst) {
			return fmt.Errorf("bitpack width %d does not round-trip", w)
		}
		pack += median(p) * wt
		unpack += median(u) * wt
		count += median(c) * wt
		weight += wt
	}
	L["bitpack.pack_ns_per_value"] = pack / weight
	L["bitpack.unpack_ns_per_value"] = unpack / weight
	L["bitpack.count_range_ns_per_value"] = count / weight
	return nil
}
