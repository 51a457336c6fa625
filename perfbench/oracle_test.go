package main

import (
	"fmt"
	"math"
	"math/big"
	"testing"
)

// tiny is a five-row table whose answers are worked out by hand below.
var tiny = source{
	"a": {1, 2, 3, 4, 5},
	"b": {10, 20, 30, 40, 50},
}

func tinyQueries() (count, sum, rows *query) {
	p := rangePred{"a", 2, 4}
	count = &query{kind: "count", op: "count", p: p}
	sum = &query{kind: "sum", op: "sum", p: p, cols: []string{"b"}}
	rows = &query{kind: "rows", op: "rows", p: p, cols: []string{"b"}, limit: 2}
	for _, q := range []*query{count, sum, rows} {
		q.want = solve(q, tiny, 5, "a")
	}
	return
}

func TestOracleMatchesHandAnswers(t *testing.T) {
	count, sum, rows := tinyQueries()
	// Rows 1, 2 and 3 have a in [2, 4].
	if count.want.matched != 3 {
		t.Errorf("count matched %d, want 3", count.want.matched)
	}
	if got := sum.want.sums[0]; got.Cmp(big.NewInt(20+30+40)) != 0 || sum.want.overflow {
		t.Errorf("sum = %s (overflow %v), want 90", got, sum.want.overflow)
	}
	// The limit keeps the first two matches: row 1 (b=20), row 2 (b=30).
	h := hashStep(hashStep(hashStep(hashStep(hashSeed, 1), 20), 2), 30)
	if rows.want.matched != 3 || rows.want.streamed != 2 || rows.want.rowsHash != h {
		t.Errorf("rows answer %+v, want matched 3, streamed 2, hash %x", rows.want, h)
	}

	good := map[*query]string{
		count: `{"matched":3,"elapsed_ms":0.1}`,
		sum:   `{"matched":3,"sums":{"b":90},"elapsed_ms":0.1}`,
		rows: `{"matched":3,"columns":["b"]}
{"rows":[1,2],"cols":[[20,30]]}
{"done":true,"streamed":2,"elapsed_ms":0.1}
`,
	}
	for q, body := range good {
		if err := checkResponse(q, 200, []byte(body)); err != nil {
			t.Errorf("%s: correct response rejected: %v", q.kind, err)
		}
	}
	if err := checkAggregate(sum, 3, []int64{90}); err != nil {
		t.Errorf("correct in-process sum rejected: %v", err)
	}
}

func TestCheckerCountsWrongAnswersAsFailed(t *testing.T) {
	count, sum, rows := tinyQueries()
	over := &query{kind: "overflow-sum", op: "sum", cols: []string{"x"}}
	big := source{"x": {math.MaxInt64, 1, 5}}
	over.want = solve(over, big, 3, "")
	if !over.want.overflow {
		t.Fatal("oracle missed an overflowing sum")
	}
	// What the wrapping sum returns for [MaxInt64, 1, 5].
	wrapped := int64(math.MaxInt64)
	wrapped += 6

	bad := []struct {
		q      *query
		status int
		body   string
	}{
		{count, 200, `{"matched":4}`},
		{sum, 200, `{"matched":3,"sums":{"b":91}}`},
		{rows, 200, `{"matched":3,"columns":["b"]}
{"rows":[1],"cols":[[20]]}
{"done":true,"streamed":1,"elapsed_ms":0.1}
`},
		{over, 200, fmt.Sprintf(`{"matched":3,"sums":{"x":%d}}`, wrapped)},
	}
	st := &runStats{}
	for _, b := range bad {
		if err := checkResponse(b.q, b.status, []byte(b.body)); err != nil {
			st.fail(err)
		} else {
			t.Errorf("%s: wrong response %s accepted", b.q.kind, b.body)
		}
	}
	if st.failed != int64(len(bad)) {
		t.Errorf("failed = %d, want %d", st.failed, len(bad))
	}
	if err := checkAggregate(over, 3, []int64{wrapped}); err == nil {
		t.Error("wrapped in-process sum accepted")
	}
	if err := checkRows(rows, 3, 1, hashStep(hashStep(hashSeed, 1), 20)); err == nil {
		t.Error("projection missing a row accepted")
	}
	// An explicit error is the correct outcome of an overflowing sum.
	if err := checkResponse(over, 400, []byte(`{"error":"sum overflows int64"}`)); err != nil {
		t.Errorf("explicit overflow error rejected: %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestOnlyWrappedSumsKeepARunCorrect(t *testing.T) {
	count, _, _ := tinyQueries()
	over := &query{kind: "overflow-sum", op: "sum", cols: []string{"x"}}
	over.want = solve(over, source{"x": {math.MaxInt64, 1}}, 2, "")
	wrapped := checkResponse(over, 200, []byte(`{"matched":2,"sums":{"x":-9223372036854775808}}`))
	wrong := checkResponse(count, 200, []byte(`{"matched":4}`))
	// A 500 on the overflowing sum is not the known fault: the correct
	// outcome is an explicit error, and this is some other failure.
	broken := checkResponse(over, 500, []byte(`internal error`))

	for _, c := range []struct {
		name    string
		errs    []error
		correct bool
	}{
		{"only wrapped sums", []error{wrapped, wrapped}, true},
		{"wrong count", []error{wrapped, wrong}, false},
		{"overflow sum failing otherwise", []error{broken}, false},
	} {
		st := &runStats{attempted: 10, win: &window{cpu: 1}, user: 1}
		for _, err := range c.errs {
			st.fail(err)
		}
		res, err := report(&spec{}, st, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct != c.correct || res.Failed != int64(len(c.errs)) {
			t.Errorf("%s: correct %v failed %d, want %v and %d", c.name, res.Correct, res.Failed, c.correct, len(c.errs))
		}
	}
}

func TestKeepAnswerIgnoresElapsedOnly(t *testing.T) {
	var kept []exchange
	a := keepAnswer(&kept, 200, []byte(`{"matched":3,"elapsed_ms":0.25}`))
	b := keepAnswer(&kept, 200, []byte(`{"matched":3,"elapsed_ms":12.5}`))
	c := keepAnswer(&kept, 200, []byte(`{"matched":4,"elapsed_ms":0.25}`))
	d := keepAnswer(&kept, 500, []byte(`{"matched":3,"elapsed_ms":0.25}`))
	if a != 0 || b != 0 || c != 1 || d != 2 || len(kept) != 3 {
		t.Fatalf("indexes %d %d %d %d, %d kept", a, b, c, d, len(kept))
	}
	count, _, rows := tinyQueries()
	count.want.matched = 3
	if err := checkResponse(count, kept[0].status, kept[0].body); err != nil {
		t.Errorf("kept answer no longer checks: %v", err)
	}
	stream := `{"matched":3,"columns":["b"]}
{"rows":[1,2],"cols":[[20,30]]}
{"done":true,"streamed":2,"elapsed_ms":0.1}
`
	var rowsKept []exchange
	keepAnswer(&rowsKept, 200, []byte(stream))
	if err := checkResponse(rows, rowsKept[0].status, rowsKept[0].body); err != nil {
		t.Errorf("kept rows stream no longer checks: %v", err)
	}
}
