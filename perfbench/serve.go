package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"lwcomp"
	"lwcomp/internal/server"
	"lwcomp/internal/workload"
)

// serve-mixed: lwcd serving a six-column orders table to two
// closed-loop HTTP clients. Each client replays whole rounds of a fixed
// mix, so the share of any one kind of query — and of the overflow sums
// that fail today — is the same in every run.

const (
	serveRows    = 1 << 20
	serveClients = 2
	serveTable   = "orders"
	// serveTsBase is an epoch-nanosecond timestamp in 2023: six rows
	// of ts_ns already sum past MaxInt64.
	serveTsBase = 1_700_000_000_000_000_000
)

// genOrders builds the orders table. Each column has a shape whose
// scheme family the analyzer picks the same way whatever the seed (ship
// dates RLE, outlier walk patch, low cardinality dict, runs RLE, a
// steep trend plus noise a linear model, a shallow one FOR), so a seed
// moves the data but not the mix of decode work. ts_ns comes from a fixed seed, so the overflowing sum over it
// is the same operation whatever --seed is.
func genOrders(seed int64, n int) source {
	ts := make([]int64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range ts {
		ts[i] = serveTsBase + int64(i)*1_000_000 + rng.Int63n(1_000_000)
	}
	return source{
		"date":     workload.OrderShipDates(n, 40, 19000, seed),
		"amount":   workload.OutlierWalk(n, 50, 0.001, 1<<30, seed+1),
		"status":   workload.LowCardinality(n, 8, seed+2),
		"qty":      workload.Runs(n, 20, 50, seed+3),
		"price":    workload.TrendNoise(n, 2, 100, seed+4),
		"discount": workload.TrendNoise(n, 0.5, 1000, seed+5),
		"ts_ns":    ts,
	}
}

// serveRound draws one round of the mix from seed: every kind of query
// a fixed number of times, with seeded positions and values but fixed
// selectivities, so rounds cost about the same whatever the seed.
func serveRound(src source, n int, seed int64) []*query {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	date, priceSorted := src["date"], sortedCopy(src["price"])
	byFreq := byFrequency(src["status"])
	window := func(frac float64) rangePred {
		w := int(frac * float64(n))
		r := rng.Intn(n - w)
		return rangePred{"date", date[r], date[r+w]}
	}
	priceRange := func(frac float64) rangePred {
		p := rng.Float64() * (1 - frac)
		return rangePred{"price", quantile(priceSorted, p), quantile(priceSorted, p+frac)}
	}
	// status values are chosen by frequency rank, not at random: the
	// column is Zipf-skewed, and a random value would make a round's
	// cost depend on the seed.
	status := func(rank int) int64 { return byFreq[rank] }
	var qs []*query
	add := func(times int, mk func() *query) {
		for i := 0; i < times; i++ {
			qs = append(qs, mk())
		}
	}
	for half := 0; half < 2; half++ {
		// A block is 1/16 of the rows, so the 20% and 15% windows hold
		// whole blocks the stats prove.
		add(2, func() *query { return &query{kind: "count-date", op: "count", p: window(0.20)} })
		add(2, func() *query {
			return &query{kind: "count-date-in", op: "count",
				p: andPred{window(0.10), inPred{"status", []int64{status(1), status(4)}}}}
		})
		add(1, func() *query {
			q := rng.Int63n(48)
			return &query{kind: "count-or-all", op: "count",
				p: orPred{rangePred{"qty", q, q + 2}, eqPred{"status", status(2)}}}
		})
		add(2, func() *query {
			return &query{kind: "count-or-skip", op: "count", p: orPred{window(0.02), priceRange(0.02)}}
		})
		add(1, func() *query {
			return &query{kind: "count-in", op: "count", p: inPred{"status", []int64{status(0), status(3), status(5)}}}
		})
		add(2, func() *query {
			return &query{kind: "sum-date", op: "sum", p: window(0.15), cols: []string{"amount", "discount"}}
		})
		add(2, func() *query {
			q := rng.Int63n(40)
			return &query{kind: "sum2-date-qty", op: "sum",
				p: andPred{window(0.10), rangePred{"qty", q, q + 10}}, cols: []string{"amount", "price"}}
		})
		add(2, func() *query {
			return &query{kind: "lookup", op: "sum", p: eqPred{"date", date[rng.Intn(n)]}, cols: []string{"amount"}}
		})
		add(1, func() *query {
			return &query{kind: "rows", op: "rows", p: andPred{window(0.01), eqPred{"status", status(1)}},
				cols: []string{"date", "amount"}, limit: 100}
		})
		add(1, func() *query { return &query{kind: "overflow-sum", op: "sum", cols: []string{"ts_ns"}} })
	}
	for _, q := range qs {
		q.want = solve(q, src, n, "date")
	}
	return qs
}

// byFrequency returns v's distinct values, most frequent first (ties
// by value).
func byFrequency(v []int64) []int64 {
	counts := map[int64]int{}
	for _, x := range v {
		counts[x]++
	}
	out := make([]int64, 0, len(counts))
	for x := range counts {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool {
		if counts[out[i]] != counts[out[j]] {
			return counts[out[i]] > counts[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// encodeTable encodes each source column with the default analyzer at
// the default block size.
func encodeTable(src source, names []string) (map[string]*lwcomp.Column, error) {
	cols := make(map[string]*lwcomp.Column, len(names))
	for _, name := range names {
		c, err := lwcomp.Encode(src[name], lwcomp.WithBlockSize(lwcomp.DefaultBlockSize))
		if err != nil {
			return nil, fmt.Errorf("encoding %s: %w", name, err)
		}
		cols[name] = c
	}
	return cols, nil
}

// lwcd is a server behind a loopback listener.
type lwcd struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startLwcd(cfg server.Config) (*lwcd, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}
	d := &lwcd{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: tr}, served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

func (d *lwcd) close() error {
	d.client.CloseIdleConnections()
	err := d.hs.Close()
	<-d.served
	return errors.Join(err, d.srv.Close())
}

// post sends one query body and reads the whole response.
func (d *lwcd) post(body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// requestBody renders q as a /query request.
func requestBody(table string, q *query) []byte {
	body, _ := json.Marshal(struct {
		Table   string   `json:"table"`
		Op      string   `json:"op"`
		Where   string   `json:"where,omitempty"`
		Columns []string `json:"columns,omitempty"`
		Limit   int64    `json:"limit,omitempty"`
	}{table, q.op, q.where(), q.cols, q.limit})
	return body
}

// exchange is one request's response.
type exchange struct {
	status int
	body   []byte
	err    error
}

// served is one exchange of the measured loop. Its response is not kept
// with it: answer indexes the distinct responses its client has kept
// for that query (see keepAnswer), so the loop's memory does not grow
// with the number of responses.
type served struct {
	lat    time.Duration
	err    error
	answer int
}

// elapsedKey starts the field that makes otherwise equal responses
// differ: the server's own query time.
var elapsedKey = []byte(`"elapsed_ms":`)

// keepAnswer returns the index of a response among the distinct ones
// kept for a query, adding it if it is new. Responses are compared with
// the value of their last elapsed_ms field read as 0, so a correct
// answer is kept once however often it is served. It only compares
// bytes; the answers are judged after the timed loop.
func keepAnswer(kept *[]exchange, status int, body []byte) int {
	pre, post := body, []byte(nil)
	if i := bytes.LastIndex(body, elapsedKey); i >= 0 {
		i += len(elapsedKey)
		j := i
		for j < len(body) && bytes.IndexByte([]byte("0123456789.eE+-"), body[j]) >= 0 {
			j++
		}
		pre, post = body[:i], append([]byte("0"), body[j:]...)
	}
	for i, k := range *kept {
		if k.status == status && len(k.body) == len(pre)+len(post) &&
			bytes.Equal(k.body[:len(pre)], pre) && bytes.Equal(k.body[len(pre):], post) {
			return i
		}
	}
	*kept = append(*kept, exchange{status: status, body: append(append([]byte(nil), pre...), post...)})
	return len(*kept) - 1
}

func runServeMixed(cfg config) (*runStats, error) {
	names := []string{"date", "amount", "status", "qty", "price", "discount", "ts_ns"}
	src := genOrders(cfg.seed, serveRows)
	round := serveRound(src, serveRows, cfg.seed)
	bodies := make([][]byte, len(round))
	for i, q := range round {
		bodies[i] = requestBody(serveTable, q)
	}

	st := &runStats{user: int64(serveRows) * int64(len(names)) * 8}
	rss := startRSS()
	defer rss.stop()
	// setup writes the table into a directory of its own and mounts it
	// in a new lwcd. The clients query the first; the later repeats
	// are timed and thrown away.
	setup := func(i int) (*lwcd, string, map[string]*lwcomp.Column, error) {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("serve-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, "", nil, err
		}
		var d *lwcd
		var cols map[string]*lwcomp.Column
		var warm []exchange
		err := st.timeSetup(func() error {
			var err error
			d, cols, warm, err = setupServe(dir, src, names, bodies)
			return err
		})
		if err != nil {
			return nil, "", nil, err
		}
		for j, ex := range warm {
			if err := checkExchange(round[j], ex); err != nil && !round[j].want.overflow {
				d.close()
				return nil, "", nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return d, dir, cols, nil
	}
	d, dataDir, cols, err := setup(0)
	if err != nil {
		return nil, err
	}
	defer d.close()
	if st.stored, err = dirBytes(dataDir); err != nil {
		return nil, err
	}

	results := make([][]served, serveClients)
	answers := make([][][]exchange, serveClients) // by client, then query
	for c := range answers {
		answers[c] = make([][]exchange, len(round))
	}
	var queued []float64
	// segment runs the clients, each in whole rounds, until the window
	// has timed until seconds. The traced run samples the admission
	// queue meanwhile.
	segment := func(until float64) {
		st.win.resume()
		deadline := time.Now().Add(time.Duration((until - st.win.wall) * float64(time.Second)))
		stop, sampled := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(sampled)
			if !cfg.trace {
				return
			}
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if m, err := scrapeMetrics(d); err == nil {
						queued = append(queued, float64(m.Queries.Queued))
					}
				}
			}
		}()
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				// Clients start half a round apart so they do not send
				// the same query at the same moment.
				off := c * len(round) / serveClients
				for time.Now().Before(deadline) {
					for k := range round {
						j := (k + off) % len(round)
						t := time.Now()
						status, body, err := d.post(bodies[j])
						ex := served{lat: time.Since(t), err: err}
						if err == nil {
							ex.answer = keepAnswer(&answers[c][j], status, body)
						}
						results[c] = append(results[c], ex)
					}
				}
			}(c)
		}
		wg.Wait()
		close(stop)
		<-sampled
		st.win.pause()
	}

	st.win = openWindow()
	for next := 1; ; next++ {
		segment(float64(next) * cfg.seconds / setupRepeats)
		if !setupDue(next, st.win.wall, cfg.seconds) {
			break
		}
		extra, dir, _, err := setup(next)
		if err != nil {
			return nil, err
		}
		if err := errors.Join(extra.close(), os.RemoveAll(dir)); err != nil {
			return nil, err
		}
	}
	st.win.close()
	st.peakRSSMB = rss.stopMB()

	for c, rs := range results {
		off := c * len(round) / serveClients
		// Each distinct answer is judged once.
		verdicts := make([][]error, len(round))
		for j, kept := range answers[c] {
			for _, a := range kept {
				verdicts[j] = append(verdicts[j], checkExchange(round[j], a))
			}
		}
		for k, ex := range rs {
			j := (k + off) % len(round)
			st.attempted++
			st.latMS = append(st.latMS, ms(ex.lat))
			var err error
			if ex.err != nil {
				err = fmt.Errorf("%s: %w", round[j].kind, ex.err)
			} else {
				err = verdicts[j][ex.answer]
			}
			if err != nil {
				st.fail(err)
			}
		}
	}
	if cfg.trace {
		in := &probeInput{
			dir: dataDir, table: serveTable, src: src, n: serveRows, sorted: "date",
			queries: round, cols: cols, names: names, perColumnFiles: true,
			opts: func() []lwcomp.Option {
				return []lwcomp.Option{lwcomp.WithSharedBlockCache(lwcomp.NewSharedBlockCache(server.DefaultCacheBytes))}
			},
			warm: true, scratch: cfg.dir,
		}
		if st.layers, err = probeLayers(in, st); err != nil {
			return nil, err
		}
		st.layers["server.queued_per_query"] = meanOf(queued)
	}
	return st, nil
}

// setupServe is serve-mixed's timed set-up: encode and write every
// column, mount the directory in lwcd, and warm the cache with one
// pass of the round.
func setupServe(dir string, src source, names []string, bodies [][]byte) (*lwcd, map[string]*lwcomp.Column, []exchange, error) {
	cols, err := encodeTable(src, names)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, name := range names {
		path := filepath.Join(dir, serveTable+"."+name+".lwc")
		if err := lwcomp.WriteColumnsFile(path, []lwcomp.NamedColumn{{Name: name, Col: cols[name]}}); err != nil {
			return nil, nil, nil, err
		}
	}
	d, err := startLwcd(server.Config{Dir: dir})
	if err != nil {
		return nil, nil, nil, err
	}
	warm := make([]exchange, len(bodies))
	for i, b := range bodies {
		status, body, err := d.post(b)
		warm[i] = exchange{status: status, body: body, err: err}
	}
	return d, cols, warm, nil
}

func checkExchange(q *query, ex exchange) error {
	if ex.err != nil {
		return fmt.Errorf("%s: %w", q.kind, ex.err)
	}
	return checkResponse(q, ex.status, ex.body)
}

// lwcdMetrics is the slice of /metrics the benchmark reads.
type lwcdMetrics struct {
	Queries struct {
		Queued int64 `json:"queued"`
	} `json:"queries"`
}

func scrapeMetrics(d *lwcd) (lwcdMetrics, error) {
	var m lwcdMetrics
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
