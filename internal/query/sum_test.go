package query

import (
	"math"
	"testing"

	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
)

// linearRowWalk is the oracle for the closed-form LINEAR fold: every
// row's prediction evaluated and tested one by one, wrapping exactly
// like decode-then-add.
func linearRowWalk(bases, slopes []int64, segLen int, frac uint, n int, lo, hi int64) (sum, count int64) {
	for i := 0; i < n; i++ {
		seg := i / segLen
		if v := scheme.LinearPredict(bases[seg], slopes[seg], i-seg*segLen, frac); v >= lo && v <= hi {
			sum += v
			count++
		}
	}
	return sum, count
}

// FuzzLinearFoldClosedForm pins linearFold — interval search plus
// floor sum per segment, row walk where int64 could overflow — to the
// plain row walk on hand-built LINEAR forms. Segment s gets base
// base+s·step and a slope that cycles through slope, −slope and 0, so
// one form mixes rising, falling and flat segments; n not a multiple
// of the segment length leaves a short last segment. A fraction width
// above 30, which decode rejects, must not be folded at all.
func FuzzLinearFoldClosedForm(f *testing.F) {
	f.Add(int64(1000), int64(3<<16), uint16(128), uint16(1000), uint8(16), int64(1200), int64(5000), int64(77))
	f.Add(int64(-5), int64(-7), uint16(1), uint16(9), uint8(0), int64(-100), int64(100), int64(-3))
	f.Add(int64(0), int64(1<<30), uint16(300), uint16(4097), uint8(30), int64(math.MinInt64), int64(math.MaxInt64), int64(1))
	f.Add(int64(math.MaxInt64-10), int64(1), uint16(50), uint16(200), uint8(0), int64(math.MaxInt64-5), int64(math.MaxInt64), int64(0))
	f.Add(int64(math.MinInt64+3), int64(-1), uint16(64), uint16(130), uint8(0), int64(math.MinInt64), int64(math.MinInt64+1), int64(0))
	f.Add(int64(1), int64(math.MaxInt64/3), uint16(10), uint16(40), uint8(2), int64(math.MinInt64), int64(math.MaxInt64), int64(5))
	f.Add(int64(math.MaxInt64), int64(1<<20), uint16(7), uint16(50), uint8(4), int64(0), int64(math.MaxInt64), int64(math.MinInt64/2))
	f.Add(int64(12345), int64(-987654321), uint16(4000), uint16(9999), uint8(31), int64(-1<<40), int64(1<<40), int64(-1<<20))
	f.Add(int64(7), int64(0), uint16(16), uint16(33), uint8(30), int64(7), int64(7), int64(0))
	f.Add(int64(1<<40), int64(12345), uint16(4095), uint16(16000), uint8(16), int64(1<<40+100), int64(1<<40+1500), int64(-9999))
	f.Fuzz(func(t *testing.T, base, slope int64, segLen16, n16 uint16, frac8 uint8, lo, hi, step int64) {
		segLen := 1 + int(segLen16)%4096
		n := int(n16) % (1 << 14)
		frac := uint(frac8) % 32 // 31 is a width decode rejects
		nseg := (n + segLen - 1) / segLen
		bases := make([]int64, nseg)
		slopes := make([]int64, nseg)
		for s := range bases {
			bases[s] = base + int64(s)*step
			switch s % 3 {
			case 0:
				slopes[s] = slope
			case 1:
				slopes[s] = -slope
			}
		}
		form := scheme.NewLinearForm(bases, slopes, segLen, frac, n)
		s := core.GetScratch()
		defer s.Release()

		for _, r := range [][2]int64{{lo, hi}, {hi, lo}, {math.MinInt64, math.MaxInt64}} {
			wantSum, wantCount := linearRowWalk(bases, slopes, segLen, frac, n, r[0], r[1])
			gotSum, gotCount, done, err := linearFold(form, s, r[0], r[1])
			if frac > 30 {
				if done || err != nil {
					t.Fatalf("linearFold folded a form with fraction width %d: done=%v err=%v", frac, done, err)
				}
				continue
			}
			if err != nil || !done {
				t.Fatalf("linearFold(%d, %d): done=%v err=%v", r[0], r[1], done, err)
			}
			if gotSum != wantSum || gotCount != wantCount {
				t.Fatalf("linearFold(%d, %d) = (%d, %d), row walk (%d, %d)",
					r[0], r[1], gotSum, gotCount, wantSum, wantCount)
			}
		}
	})
}

// TestFloorSum checks the floor-sum reduction against direct
// summation over small operands, including a = 0, b = 0 and moduli
// of one.
func TestFloorSum(t *testing.T) {
	for _, m := range []uint64{1, 2, 3, 8, 17, 64} {
		for a := uint64(0); a < m; a++ {
			for b := uint64(0); b < m; b++ {
				for n := uint64(0); n < 40; n++ {
					var want uint64
					for i := uint64(0); i < n; i++ {
						want += (a*i + b) / m
					}
					if got := floorSum(n, m, a, b); got != want {
						t.Fatalf("floorSum(%d, %d, %d, %d) = %d, want %d", n, m, a, b, got, want)
					}
				}
			}
		}
	}
}
