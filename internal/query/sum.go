package query

import (
	"fmt"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/vec"
)

// This file holds the aggregation half of the fused scan layer: Sum
// (the exact column sum, structure-exploiting and scratch-threaded)
// and SumRange (predicate + sum fused into one pass, so Count/Sum
// over a filtered block never materializes a selection it would
// immediately consume). Sums wrap mod 2^64 in two's complement, the
// same arithmetic plain int64 addition performs.
//
// Both entry points reject the same corrupt run boundaries the
// decode path rejects (checkRunBounds), so a form that cannot decode
// cannot silently aggregate either.

// SumRangeIsStructural reports whether SumRange on f runs on the
// compressed structure — run walks, segment pruning, fused
// packed-word kernels — rather than materializing the column first.
// Callers holding an already-decoded (or about-to-be-decoded)
// alternative use it to pick the cheaper route: on a structural form
// SumRange beats decode-then-fold, on anything else it IS
// decode-then-fold plus dispatch.
func SumRangeIsStructural(f *core.Form) bool {
	switch f.Scheme {
	case scheme.ConstName, scheme.RLEName, scheme.RPEName,
		scheme.FORName, scheme.StepName, scheme.LinearName:
		return true
	case scheme.NSName:
		if _, ok := fusedNSWidth(f); ok {
			return true
		}
		_, ok := fusedNSZZWidth(f)
		return ok
	case scheme.VNSName:
		zz := f.Params["zigzag"]
		return zz == 0 || zz == 1
	}
	return false
}

// Sum returns the exact sum of the column represented by f, computed
// without full materialization where the form's structure allows.
func Sum(f *core.Form) (int64, error) {
	s := core.GetScratch()
	defer s.Release()
	return SumScratch(f, s)
}

// SumScratch is Sum with caller-provided decode scratch: the
// steady-state zero-allocation entry point for block workers.
func SumScratch(f *core.Form, s *core.Scratch) (int64, error) {
	switch f.Scheme {
	case scheme.ConstName:
		return f.Params["value"] * int64(f.N), nil

	case scheme.RLEName, scheme.RPEName:
		bounds, values, err := runBoundariesScratch(f, s)
		if err != nil {
			return 0, err
		}
		var acc int64
		var start int64
		for i, end := range bounds {
			acc += (end - start) * values[i]
			start = end
		}
		s.PutI64(bounds)
		s.PutI64(values)
		return acc, nil

	case scheme.FORName:
		refs, err := core.ChildScratch(f, "refs", s)
		if err != nil {
			return 0, err
		}
		acc := sumStep(refs, int(f.Params["seglen"]), f.N)
		s.PutI64(refs)
		offsets, err := f.Child("offsets")
		if err != nil {
			return 0, err
		}
		os, err := SumScratch(offsets, s)
		if err != nil {
			return 0, err
		}
		return acc + os, nil

	case scheme.StepName:
		refs, err := core.ChildScratch(f, "refs", s)
		if err != nil {
			return 0, err
		}
		acc := sumStep(refs, int(f.Params["seglen"]), f.N)
		s.PutI64(refs)
		return acc, nil

	case scheme.NSName:
		w := f.Params["width"]
		if w >= 0 && w <= 64 {
			if f.Params["zigzag"] == 1 {
				return bitpack.SumZZ(f.Packed, 0, f.N, uint(w))
			}
			// The wrapping uint64 kernel sum is bit-identical to the
			// wrapping int64 sum of the reinterpreted values, at any
			// width.
			u, err := bitpack.SumU(f.Packed, 0, f.N, uint(w))
			return int64(u), err
		}

	case scheme.VNSName:
		var total int64
		zz := f.Params["zigzag"] == 1
		done, err := vnsWalk(f, s, 64, func(words []uint64, w uint, pos, count int) error {
			if zz {
				n, err := bitpack.SumZZ(words, 0, count, w)
				total += n
				return err
			}
			u, err := bitpack.SumU(words, 0, count, w)
			total += int64(u)
			return err
		})
		if done || err != nil {
			return total, err
		}

	case scheme.PlusName:
		model, err := f.Child("model")
		if err != nil {
			return 0, err
		}
		residual, err := f.Child("residual")
		if err != nil {
			return 0, err
		}
		ms, err := SumScratch(model, s)
		if err != nil {
			return 0, err
		}
		rs, err := SumScratch(residual, s)
		if err != nil {
			return 0, err
		}
		return ms + rs, nil

	case scheme.PatchName:
		base, err := f.Child("base")
		if err != nil {
			return 0, err
		}
		// Sum of the base plus the per-exception corrections. The
		// corrections need the base's values at the patched
		// positions, which PointLookup provides without full
		// decompression.
		bs, err := SumScratch(base, s)
		if err != nil {
			return 0, err
		}
		positions, err := core.ChildScratch(f, "positions", s)
		if err != nil {
			return 0, err
		}
		defer s.PutI64(positions)
		values, err := core.ChildScratch(f, "values", s)
		if err != nil {
			return 0, err
		}
		defer s.PutI64(values)
		for i, p := range positions {
			bv, err := PointLookup(base, p)
			if err != nil {
				return 0, err
			}
			bs += values[i] - bv
		}
		return bs, nil

	case scheme.DeltaName:
		// Σ prefixsum(d) = Σ (n−i)·d[i]: one pass over the deltas.
		deltas, err := core.ChildScratch(f, "deltas", s)
		if err != nil {
			return 0, err
		}
		defer s.PutI64(deltas)
		var acc int64
		n := int64(len(deltas))
		for i, d := range deltas {
			acc += (n - int64(i)) * d
		}
		return acc, nil

	case scheme.DictName:
		dict, codes, err := dictPartsScratch(f, s)
		if err != nil {
			return 0, err
		}
		defer s.PutI64(dict)
		defer s.PutI64(codes)
		var acc int64
		n := int64(len(dict))
		for _, c := range codes {
			if c < 0 || c >= n {
				return 0, fmt.Errorf("%w: dict code %d out of range", core.ErrCorruptForm, c)
			}
			acc += dict[c]
		}
		return acc, nil

	case scheme.LinearName:
		sum, _, done, err := linearFold(f, s, minInt64, maxInt64)
		if done || err != nil {
			return sum, err
		}
	}

	// Fallback: materialize into scratch.
	col := s.I64(f.N)
	defer s.PutI64(col)
	if err := core.DecompressInto(f, col, s); err != nil {
		return 0, err
	}
	return vec.Sum(col), nil
}

// SumRange returns the sum and count of the values of f inside
// [lo, hi] — the fused filter+aggregate: packed payloads go through
// the sumInRange kernels, runs contribute length·value per run, FOR
// and step models prune whole segments, and nothing is materialized
// on the structural paths.
func SumRange(f *core.Form, lo, hi int64) (sum, count int64, err error) {
	s := core.GetScratch()
	defer s.Release()
	return SumRangeScratch(f, lo, hi, s)
}

// SumRangeScratch is SumRange with caller-provided decode scratch.
func SumRangeScratch(f *core.Form, lo, hi int64, s *core.Scratch) (sum, count int64, err error) {
	if lo > hi || f.N == 0 {
		return 0, 0, nil
	}
	switch f.Scheme {
	case scheme.ConstName:
		v := f.Params["value"]
		if v < lo || v > hi {
			return 0, 0, nil
		}
		return v * int64(f.N), int64(f.N), nil

	case scheme.RLEName, scheme.RPEName:
		bounds, values, err := runBoundariesScratch(f, s)
		if err != nil {
			return 0, 0, err
		}
		var start int64
		for i, end := range bounds {
			if v := values[i]; v >= lo && v <= hi {
				sum += (end - start) * v
				count += end - start
			}
			start = end
		}
		s.PutI64(bounds)
		s.PutI64(values)
		return sum, count, nil

	case scheme.NSName:
		if w, ok := fusedNSWidth(f); ok {
			ulo, uhi, any := unsignedBounds(lo, hi)
			if !any {
				return 0, 0, nil
			}
			us, n, err := bitpack.SumRangeU(f.Packed, 0, f.N, w, ulo, uhi)
			return int64(us), n, err
		}
		if w, ok := fusedNSZZWidth(f); ok {
			return bitpack.SumRangeZZ(f.Packed, 0, f.N, w, lo, hi)
		}

	case scheme.VNSName:
		if sum, count, done, err := sumRangeVNS(f, lo, hi, s); done || err != nil {
			return sum, count, err
		}

	case scheme.FORName:
		return sumRangeFOR(f, lo, hi, s)

	case scheme.StepName:
		refs, err := core.ChildScratch(f, "refs", s)
		if err != nil {
			return 0, 0, err
		}
		defer s.PutI64(refs)
		segLen := int(f.Params["seglen"])
		if segLen < 1 {
			break // corrupt: materialize fallback surfaces the error
		}
		for seg := 0; seg*segLen < f.N; seg++ {
			if seg >= len(refs) {
				break
			}
			if v := refs[seg]; v >= lo && v <= hi {
				size := int64(segLen)
				if (seg+1)*segLen > f.N {
					size = int64(f.N - seg*segLen)
				}
				sum += v * size
				count += size
			}
		}
		return sum, count, nil

	case scheme.DictName:
		dict, codes, err := dictPartsScratch(f, s)
		if err != nil {
			return 0, 0, err
		}
		defer s.PutI64(dict)
		defer s.PutI64(codes)
		cLo := int64(vec.LowerBound(dict, lo))
		cHi := int64(vec.UpperBound(dict, hi)) - 1
		n := int64(len(dict))
		for _, c := range codes {
			if c < 0 || c >= n {
				return 0, 0, fmt.Errorf("%w: dict code %d out of range", core.ErrCorruptForm, c)
			}
			if c >= cLo && c <= cHi {
				sum += dict[c]
				count++
			}
		}
		return sum, count, nil

	case scheme.PlusName:
		if sum, count, done, err := sumRangePlus(f, lo, hi, s); done || err != nil {
			return sum, count, err
		}

	case scheme.LinearName:
		if sum, count, done, err := linearFold(f, s, lo, hi); done || err != nil {
			return sum, count, err
		}
	}

	// Fallback: materialize into scratch and fold in one pass.
	col := s.I64(f.N)
	defer s.PutI64(col)
	if err := core.DecompressInto(f, col, s); err != nil {
		return 0, 0, err
	}
	for _, v := range col {
		if v >= lo && v <= hi {
			sum += v
			count++
		}
	}
	return sum, count, nil
}

// sumStep sums a step function: Σ refs[s] · |segment s|.
func sumStep(refs []int64, segLen, n int) int64 {
	var acc int64
	for s := 0; s*segLen < n; s++ {
		size := segLen
		if (s+1)*segLen > n {
			size = n - s*segLen
		}
		acc += refs[s] * int64(size)
	}
	return acc
}

// dictPartsScratch borrows a dict form's dictionary and decoded codes
// from s; the caller returns both with PutI64.
func dictPartsScratch(f *core.Form, s *core.Scratch) (dict, codes []int64, err error) {
	dict, err = core.ChildScratch(f, "dict", s)
	if err != nil {
		return nil, nil, err
	}
	codes, err = core.ChildScratch(f, "codes", s)
	if err != nil {
		s.PutI64(dict)
		return nil, nil, err
	}
	return dict, codes, nil
}

// sumRangeVNS folds the fused filter+sum kernels over a VNS form's
// mini-blocks.
func sumRangeVNS(f *core.Form, lo, hi int64, s *core.Scratch) (sum, count int64, done bool, err error) {
	if zz := f.Params["zigzag"]; zz == 1 {
		done, err = vnsWalk(f, s, 64, func(words []uint64, w uint, pos, n int) error {
			bs, bn, err := bitpack.SumRangeZZ(words, 0, n, w, lo, hi)
			sum += bs
			count += bn
			return err
		})
		return sum, count, done, err
	} else if zz != 0 {
		return 0, 0, false, nil
	}
	ulo, uhi, any := unsignedBounds(lo, hi)
	if !any {
		done, err = vnsWalk(f, s, 63, func([]uint64, uint, int, int) error { return nil })
		return 0, 0, done, err
	}
	done, err = vnsWalk(f, s, 63, func(words []uint64, w uint, pos, n int) error {
		bs, bn, err := bitpack.SumRangeU(words, 0, n, w, ulo, uhi)
		sum += int64(bs)
		count += bn
		return err
	})
	return sum, count, done, err
}

// sumRangeFOR walks FOR segments with the pruner trichotomy: outside
// segments contribute nothing, inside segments their reference times
// size plus the offsets' plain sum, straddling segments the fused
// filter+sum over the packed offsets.
func sumRangeFOR(f *core.Form, lo, hi int64, s *core.Scratch) (sum, count int64, err error) {
	p, err := newFORPruner(f, s)
	if err != nil {
		return 0, 0, err
	}
	defer p.release(s)
	for seg := 0; seg*p.segLen < p.n; seg++ {
		switch p.classify(seg, lo, hi) {
		case segOutside:
		case segInside:
			segLo, segHi := p.segRange(seg)
			size := int64(segHi - segLo)
			os, err := p.sumSegmentOffsets(seg)
			if err != nil {
				return 0, 0, err
			}
			sum += p.refs[seg]*size + os
			count += size
		case segStraddle:
			ss, sc, err := p.sumRangeSegment(seg, lo, hi)
			if err != nil {
				return 0, 0, err
			}
			sum += ss
			count += sc
		}
	}
	return sum, count, nil
}

// sumSegmentOffsets sums the offsets of segment seg without
// materializing them when the payload is fused-scannable.
func (p *forPruner) sumSegmentOffsets(seg int) (int64, error) {
	segLo, segHi := p.segRange(seg)
	if p.decoded != nil {
		var acc int64
		for _, o := range p.decoded[segLo:segHi] {
			acc += o
		}
		return acc, nil
	}
	if p.nsFused {
		u, err := bitpack.SumU(p.offsets.Packed, segLo, segHi-segLo, p.nsWidth)
		return int64(u), err
	}
	var total int64
	err := p.vnsSegment(segLo, segHi, func(words []uint64, w uint, blockLo, relStart, relCount int) error {
		u, err := bitpack.SumU(words, relStart, relCount, w)
		total += int64(u)
		return err
	})
	return total, err
}

// sumRangeSegment sums and counts the matching rows of straddling
// segment seg via the fused filter+sum kernels on the packed offsets.
func (p *forPruner) sumRangeSegment(seg int, lo, hi int64) (sum, count int64, err error) {
	segLo, segHi := p.segRange(seg)
	ref := p.refs[seg]
	if p.decoded != nil {
		for _, o := range p.decoded[segLo:segHi] {
			v := ref + o
			if v >= lo && v <= hi {
				sum += v
				count++
			}
		}
		return sum, count, nil
	}
	ulo, uhi, any := offsetBounds(ref, lo, hi)
	if !any {
		return 0, 0, nil
	}
	if p.nsFused {
		us, n, err := bitpack.SumRangeU(p.offsets.Packed, segLo, segHi-segLo, p.nsWidth, ulo, uhi)
		if err != nil {
			return 0, 0, err
		}
		return int64(us) + ref*n, n, nil
	}
	err = p.vnsSegment(segLo, segHi, func(words []uint64, w uint, blockLo, relStart, relCount int) error {
		us, n, err := bitpack.SumRangeU(words, relStart, relCount, w, ulo, uhi)
		sum += int64(us) + ref*n
		count += n
		return err
	})
	return sum, count, err
}

// sumRangePlus is the fused predict+residual+aggregate path for PLUS
// forms, mirroring selectRangeSelPlus: v = m + r, so the residual is
// filtered against the translated window and each match contributes
// its model value back into the sum.
func sumRangePlus(f *core.Form, lo, hi int64, s *core.Scratch) (sum, count int64, done bool, err error) {
	model, residual, ok, err := plusModelParts(f)
	if !ok || err != nil {
		return 0, 0, false, err
	}
	switch model.Scheme {
	case scheme.ConstName:
		m := model.Params["value"]
		tLo, tHi, any := translateRange(lo, hi, m)
		if !any {
			return 0, 0, true, nil
		}
		rs, n, err := SumRangeScratch(residual, tLo, tHi, s)
		return rs + m*n, n, true, err
	case scheme.StepName:
		done, err = plusStepSegments(model, residual, s, func(segLo, segCount int, tLo, tHi int64, w uint, zz bool, ref int64) error {
			if zz {
				rs, n, err := bitpack.SumRangeZZ(residual.Packed, segLo, segCount, w, tLo, tHi)
				sum += rs + ref*n
				count += n
				return err
			}
			ulo, uhi, any := unsignedBounds(tLo, tHi)
			if !any {
				return nil
			}
			us, n, err := bitpack.SumRangeU(residual.Packed, segLo, segCount, w, ulo, uhi)
			sum += int64(us) + ref*n
			count += n
			return err
		}, lo, hi)
		return sum, count, done, err
	}
	return 0, 0, false, nil
}

// linearFold folds a LINEAR form without materializing it, one
// segment at a time (see linearSegment). done=false reports a shape
// the fold cannot take: a segment length or fraction width decode
// rejects goes to the materialize fallback, which reports the error.
func linearFold(f *core.Form, s *core.Scratch, lo, hi int64) (sum, count int64, done bool, err error) {
	segLen, frac := int(f.Params["seglen"]), f.Params["frac"]
	if segLen < 1 || frac < 0 || frac > 30 {
		return 0, 0, false, nil
	}
	bases, err := core.ChildScratch(f, "bases", s)
	if err != nil {
		return 0, 0, false, err
	}
	defer s.PutI64(bases)
	slopes, err := core.ChildScratch(f, "slopes", s)
	if err != nil {
		return 0, 0, false, err
	}
	defer s.PutI64(slopes)
	nseg := (f.N + segLen - 1) / segLen
	if len(bases) < nseg || len(slopes) < nseg {
		return 0, 0, false, nil // corrupt: materialize fallback surfaces the error
	}
	for seg := 0; seg < nseg; seg++ {
		rows := min(segLen, f.N-seg*segLen)
		ss, sc := linearSegment(bases[seg], slopes[seg], rows, uint(frac), lo, hi)
		sum += ss
		count += sc
	}
	return sum, count, true, nil
}

// linearSegment sums and counts the predictions base + (slope·j)>>frac
// of rows j in [0, n) that fall inside [lo, hi]. When no prediction
// can leave int64, the prediction is monotone in j, so the matching
// rows form one interval, found by binary search, whose sum is
// base·count plus a floor sum evaluated in O(frac) steps. Otherwise
// the rows are walked one by one. Both routes give the row walk's
// result bit for bit, wrapping mod 2^64 like decode-then-add. frac is
// at most 30, as decode requires.
func linearSegment(base, slope int64, n int, frac uint, lo, hi int64) (sum, count int64) {
	last := int64(n - 1)
	closed := n >= 1 && n < 1<<31 &&
		(last == 0 || (slope <= maxInt64/last && slope >= minInt64/last))
	var top int64 // the prediction at the last row, when closed
	if closed {
		q := (slope * last) >> frac
		top = base + q
		closed = (q >= 0) == (top >= base)
	}
	if !closed {
		for j := 0; j < n; j++ {
			if v := scheme.LinearPredict(base, slope, j, frac); v >= lo && v <= hi {
				sum += v
				count++
			}
		}
		return sum, count
	}
	first, end := 0, n
	if vMin, vMax := min(base, top), max(base, top); vMax < lo || vMin > hi {
		return 0, 0
	} else if vMin < lo || vMax > hi {
		// Non-decreasing: [first row >= lo, first row > hi).
		// Non-increasing: [first row <= hi, first row < lo).
		if slope >= 0 {
			first = linearFirst(base, slope, n, frac, lo, true)
			if hi < maxInt64 {
				end = linearFirst(base, slope, n, frac, hi+1, true)
			}
		} else {
			first = linearFirst(base, slope, n, frac, hi, false)
			if lo > minInt64 {
				end = linearFirst(base, slope, n, frac, lo-1, false)
			}
		}
		if end <= first {
			return 0, 0
		}
	}
	m := int64(end - first)
	return base*m + floorSumShift(slope, slope*int64(first), m, frac), m
}

// linearFirst returns the first row j in [0, n) whose prediction is
// >= t (up) or <= t (!up), or n when there is none, for a segment
// whose predictions are monotone in the matching direction.
func linearFirst(base, slope int64, n int, frac uint, t int64, up bool) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v := scheme.LinearPredict(base, slope, mid, frac); (up && v >= t) || (!up && v <= t) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// floorSumShift returns Σ_{i<m} ⌊(a·i + c) / 2^frac⌋ mod 2^64 for
// m < 2^31, frac <= 32 and a·(m-1) + c inside int64. Splitting a and
// c into quotient and remainder by 2^frac leaves qa·m(m-1)/2 + qc·m
// plus a floor sum with non-negative a, c below the modulus.
func floorSumShift(a, c, m int64, frac uint) int64 {
	mask := int64(1)<<frac - 1
	qa, qc := a>>frac, c>>frac
	rest := floorSum(uint64(m), uint64(mask)+1, uint64(a&mask), uint64(c&mask))
	return qa*(m*(m-1)/2) + qc*m + int64(rest)
}

// floorSum returns Σ_{i<n} ⌊(a·i + b) / m⌋ mod 2^64 by the Euclid-like
// reduction of the AtCoder Library's floor_sum_unsigned. It needs
// n < 2^31 and a, b < m <= 2^32, so a·n + b never overflows.
func floorSum(n, m, a, b uint64) uint64 {
	var ans uint64
	for {
		if a >= m {
			ans += n * (n - 1) / 2 * (a / m)
			a %= m
		}
		if b >= m {
			ans += n * (b / m)
			b %= m
		}
		y := a*n + b
		if y < m {
			return ans
		}
		n, b = y/m, y%m
		m, a = a, m
	}
}
