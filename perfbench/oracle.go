package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// The oracle answers every query from the generated source arrays with
// naive loops, apart from the program: its predicates are the
// benchmark's own tree, not the program's parser, and its sums are
// math/big, so they cannot wrap.

// source is a table's generated columns, by name.
type source map[string][]int64

// pred is a predicate in the benchmark's own tree. where renders it in
// the program's predicate language; bind compiles it against source
// arrays for the oracle.
type pred interface {
	where() string
	bind(src source) func(row int) bool
}

// rangePred matches lo <= col <= hi.
type rangePred struct {
	col    string
	lo, hi int64
}

func (p rangePred) where() string {
	return fmt.Sprintf("(%s >= %d and %s <= %d)", p.col, p.lo, p.col, p.hi)
}

func (p rangePred) bind(src source) func(int) bool {
	v, lo, hi := src[p.col], p.lo, p.hi
	return func(r int) bool { return v[r] >= lo && v[r] <= hi }
}

// eqPred matches col = v.
type eqPred struct {
	col string
	v   int64
}

func (p eqPred) where() string { return fmt.Sprintf("%s = %d", p.col, p.v) }

func (p eqPred) bind(src source) func(int) bool {
	v, x := src[p.col], p.v
	return func(r int) bool { return v[r] == x }
}

// inPred matches col in (vals...).
type inPred struct {
	col  string
	vals []int64
}

func (p inPred) where() string {
	parts := make([]string, len(p.vals))
	for i, v := range p.vals {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return fmt.Sprintf("%s in (%s)", p.col, strings.Join(parts, ", "))
}

func (p inPred) bind(src source) func(int) bool {
	v, set := src[p.col], p.vals
	return func(r int) bool {
		for _, x := range set {
			if v[r] == x {
				return true
			}
		}
		return false
	}
}

// andPred and orPred combine their children.
type andPred []pred
type orPred []pred

func joinWhere(kids []pred, op string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = k.where()
	}
	return "(" + strings.Join(parts, " "+op+" ") + ")"
}

func (p andPred) where() string { return joinWhere(p, "and") }
func (p orPred) where() string  { return joinWhere(p, "or") }

func (p andPred) bind(src source) func(int) bool {
	fs := bindAll(p, src)
	return func(r int) bool {
		for _, f := range fs {
			if !f(r) {
				return false
			}
		}
		return true
	}
}

func (p orPred) bind(src source) func(int) bool {
	fs := bindAll(p, src)
	return func(r int) bool {
		for _, f := range fs {
			if f(r) {
				return true
			}
		}
		return false
	}
}

func bindAll(kids []pred, src source) []func(int) bool {
	fs := make([]func(int) bool, len(kids))
	for i, k := range kids {
		fs[i] = k.bind(src)
	}
	return fs
}

// query is one operation of a workload: op is count, sum or rows (rows
// with limit 0 projects every matching row). A nil p matches every row.
type query struct {
	kind  string
	op    string
	p     pred
	cols  []string
	limit int64
	want  answer
}

// where renders the predicate for the program; "" matches every row.
func (q *query) where() string {
	if q.p == nil {
		return ""
	}
	return q.p.where()
}

// answer is the oracle's result for a query. rowsHash folds the
// streamed rows, each followed by its projected values, in row order.
type answer struct {
	matched  int64
	sums     []*big.Int
	streamed int64
	rowsHash uint64
	// overflow marks a sum whose true total does not fit int64: the
	// only correct response is an explicit error.
	overflow bool
}

// hashStep folds one value into a rows hash (FNV-1a over whole words).
func hashStep(h uint64, v int64) uint64 { return (h ^ uint64(v)) * 1099511628211 }

const hashSeed uint64 = 14695981039346656037

// solve computes q's answer over src with naive loops. sorted names a
// sorted column whose range or equality leaves at the top of the
// predicate narrow the rows visited; it changes nothing but speed.
func solve(q *query, src source, n int, sorted string) answer {
	lo, hi := 0, n
	if q.p != nil && sorted != "" {
		lo, hi = rowWindow(q.p, src[sorted], sorted, n)
	}
	match := func(int) bool { return true }
	if q.p != nil {
		match = q.p.bind(src)
	}
	var a answer
	a.rowsHash = hashSeed
	sumCols := make([][]int64, len(q.cols))
	for i, c := range q.cols {
		sumCols[i] = src[c]
	}
	acc := make([]big.Int, len(q.cols))
	var v big.Int
	for r := lo; r < hi; r++ {
		if !match(r) {
			continue
		}
		a.matched++
		switch q.op {
		case "sum":
			for i, col := range sumCols {
				acc[i].Add(&acc[i], v.SetInt64(col[r]))
			}
		case "rows":
			if q.limit > 0 && a.streamed >= q.limit {
				continue
			}
			a.streamed++
			a.rowsHash = hashStep(a.rowsHash, int64(r))
			for _, col := range sumCols {
				a.rowsHash = hashStep(a.rowsHash, col[r])
			}
		}
	}
	if q.op == "sum" {
		for i := range acc {
			a.sums = append(a.sums, new(big.Int).Set(&acc[i]))
			if !acc[i].IsInt64() {
				a.overflow = true
			}
		}
	}
	return a
}

// rowWindow bounds the rows a predicate can match using its top-level
// range or equality leaves on the sorted column.
func rowWindow(p pred, sortedCol []int64, name string, n int) (int, int) {
	leaves := []pred{p}
	if and, ok := p.(andPred); ok {
		leaves = and
	}
	lo, hi := 0, n
	for _, l := range leaves {
		var vlo, vhi int64
		switch l := l.(type) {
		case rangePred:
			if l.col != name {
				continue
			}
			vlo, vhi = l.lo, l.hi
		case eqPred:
			if l.col != name {
				continue
			}
			vlo, vhi = l.v, l.v
		default:
			continue
		}
		a := sort.Search(n, func(i int) bool { return sortedCol[i] >= vlo })
		b := sort.Search(n, func(i int) bool { return sortedCol[i] > vhi })
		lo, hi = max(lo, a), min(hi, b)
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// errWrappedSum marks the one failure today's program is known to
// make: a sum whose true total does not fit int64 answered with a
// wrapped number instead of an error. A run whose failures are all of
// this kind is still correct; any other failure makes it incorrect.
var errWrappedSum = errors.New("true sum does not fit int64, but the program answered a number")

// checkAggregate compares a count or sum result with the oracle.
func checkAggregate(q *query, matched int64, sums []int64) error {
	if q.want.overflow {
		return fmt.Errorf("%s: %w: %v", q.kind, errWrappedSum, sums)
	}
	if matched != q.want.matched {
		return fmt.Errorf("%s: matched %d, oracle %d", q.kind, matched, q.want.matched)
	}
	if q.op != "sum" {
		return nil
	}
	if len(sums) != len(q.want.sums) {
		return fmt.Errorf("%s: %d sums, oracle %d", q.kind, len(sums), len(q.want.sums))
	}
	for i, s := range sums {
		if !q.want.sums[i].IsInt64() || q.want.sums[i].Int64() != s {
			return fmt.Errorf("%s: sum(%s) = %d, oracle %s", q.kind, q.cols[i], s, q.want.sums[i])
		}
	}
	return nil
}

// checkRows compares a projection — its match count and the streamed
// rows with their values, folded in order — with the oracle.
func checkRows(q *query, matched, streamed int64, rowsHash uint64) error {
	if matched != q.want.matched {
		return fmt.Errorf("%s: matched %d, oracle %d", q.kind, matched, q.want.matched)
	}
	if streamed != q.want.streamed || rowsHash != q.want.rowsHash {
		return fmt.Errorf("%s: streamed %d rows (hash %x), oracle %d rows (hash %x)",
			q.kind, streamed, rowsHash, q.want.streamed, q.want.rowsHash)
	}
	return nil
}

// checkResponse judges one lwcd /query response against the oracle:
// nil when it is the correct answer, or, for a sum the oracle knows
// overflows int64, an explicit error response.
func checkResponse(q *query, status int, body []byte) error {
	if q.want.overflow {
		var e struct {
			Error string `json:"error"`
		}
		if status != http.StatusOK && json.Unmarshal(body, &e) == nil && e.Error != "" {
			return nil
		}
		if status == http.StatusOK {
			return fmt.Errorf("%s: %w: %s", q.kind, errWrappedSum, bytes.TrimSpace(body))
		}
		return fmt.Errorf("%s: true sum does not fit int64, and the server answered %d without an error: %s",
			q.kind, status, bytes.TrimSpace(body))
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", q.kind, status, bytes.TrimSpace(body))
	}
	if q.op == "rows" {
		return checkNDJSON(q, body)
	}
	var res struct {
		Matched int64            `json:"matched"`
		Sums    map[string]int64 `json:"sums"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("%s: decoding response: %v", q.kind, err)
	}
	var sums []int64
	if q.op == "sum" {
		for _, c := range q.cols {
			s, ok := res.Sums[c]
			if !ok {
				return fmt.Errorf("%s: response has no sum for %q", q.kind, c)
			}
			sums = append(sums, s)
		}
	}
	return checkAggregate(q, res.Matched, sums)
}

// checkNDJSON parses a rows stream — header, row frames, done frame —
// and checks it against the oracle.
func checkNDJSON(q *query, body []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<30)
	var header struct {
		Matched int64    `json:"matched"`
		Columns []string `json:"columns"`
	}
	if !sc.Scan() {
		return fmt.Errorf("%s: empty rows stream", q.kind)
	}
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
		return fmt.Errorf("%s: decoding header frame: %v", q.kind, err)
	}
	if strings.Join(header.Columns, ",") != strings.Join(q.cols, ",") {
		return fmt.Errorf("%s: header columns %v, want %v", q.kind, header.Columns, q.cols)
	}
	h, streamed := hashSeed, int64(0)
	for sc.Scan() {
		var frame struct {
			Rows     []int64   `json:"rows"`
			Cols     [][]int64 `json:"cols"`
			Done     *bool     `json:"done"`
			Streamed int64     `json:"streamed"`
			Error    string    `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			return fmt.Errorf("%s: decoding frame: %v", q.kind, err)
		}
		if frame.Done != nil {
			if !*frame.Done {
				return fmt.Errorf("%s: stream truncated: %s", q.kind, frame.Error)
			}
			if frame.Streamed != streamed {
				return fmt.Errorf("%s: done frame says %d rows, frames held %d", q.kind, frame.Streamed, streamed)
			}
			return checkRows(q, header.Matched, streamed, h)
		}
		if len(frame.Cols) != len(q.cols) {
			return fmt.Errorf("%s: frame has %d columns, want %d", q.kind, len(frame.Cols), len(q.cols))
		}
		for i, r := range frame.Rows {
			h = hashStep(h, r)
			for _, col := range frame.Cols {
				if i >= len(col) {
					return fmt.Errorf("%s: frame column shorter than its rows", q.kind)
				}
				h = hashStep(h, col[i])
			}
			streamed++
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: reading stream: %v", q.kind, err)
	}
	return fmt.Errorf("%s: stream ended without a done frame", q.kind)
}

// quantile returns the value at fraction f of sorted.
func quantile(sorted []int64, f float64) int64 {
	i := int(f * float64(len(sorted)))
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// nonNegative reports whether no value is below zero.
func nonNegative(v []int64) bool {
	for _, x := range v {
		if x < 0 {
			return false
		}
	}
	return true
}
