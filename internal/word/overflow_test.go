package word

import (
	"math"
	"strconv"
	"testing"
)

// The d^D overflow guards are correctness-critical: Table 1 and the
// layout sweeps convert words to Horner integers near the top of the int
// range, and a silent wrap would corrupt vertex identities rather than
// crash. These tests pin the guard boundaries exactly: the documented
// panic fires at the first (d, D) whose d^D exceeds int, and the largest
// non-overflowing pairs still round-trip word ↔ integer bit-exactly.

// mustPanicMsg runs fn and asserts it panics with exactly msg.
func mustPanicMsg(t *testing.T, msg string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("no panic, want panic %q", msg)
			return
		}
		got, ok := r.(string)
		if !ok || got != msg {
			t.Errorf("panic %v, want %q", r, msg)
		}
	}()
	fn()
}

// powBoundaries lists, for a 64-bit int, the largest D with d^D ≤ MaxInt
// ("documented bound": the guard must admit (d, Dmax) and reject
// (d, Dmax+1)).
var powBoundaries = []struct {
	d, maxD int
}{
	{2, 62},  // 2^62 ≈ 4.61e18 < MaxInt64 < 2^63
	{3, 39},  // 3^39 ≈ 4.05e18 < MaxInt64 < 3^40
	{5, 27},  // 5^27 ≈ 7.45e18 < MaxInt64 < 5^28
	{7, 22},  // 7^22 ≈ 3.91e18 < MaxInt64 < 7^23
	{10, 18}, // 10^18 = 1e18 < MaxInt64 < 10^19
}

func TestPowOverflowBoundary(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skipf("boundary table assumes 64-bit int, have %d", strconv.IntSize)
	}
	for _, tc := range powBoundaries {
		n := Pow(tc.d, tc.maxD) // must not panic
		if n <= 0 {
			t.Errorf("Pow(%d,%d) = %d, want positive", tc.d, tc.maxD, n)
		}
		// The product is tight: one more factor of d must not fit.
		if n <= math.MaxInt/tc.d {
			t.Errorf("Pow(%d,%d) = %d would admit another factor; boundary table is wrong", tc.d, tc.maxD, n)
		}
		mustPanicMsg(t, "word: d^D overflows int", func() { Pow(tc.d, tc.maxD+1) })
		// Far past the boundary the same guard, not a wrapped value, must
		// answer.
		mustPanicMsg(t, "word: d^D overflows int", func() { Pow(tc.d, 4*tc.maxD) })
		// PowChecked draws the same boundary without panicking, and
		// answers an absurd D in O(64) steps.
		if got, ok := PowChecked(tc.d, tc.maxD); !ok || got != n {
			t.Errorf("PowChecked(%d,%d) = %d, %v, want %d, true", tc.d, tc.maxD, got, ok, n)
		}
		for _, D := range []int{tc.maxD + 1, 4 * tc.maxD, math.MaxInt} {
			if got, ok := PowChecked(tc.d, D); ok {
				t.Errorf("PowChecked(%d,%d) = %d, true; want overflow", tc.d, D, got)
			}
		}
	}
}

func TestPowSmallValuesExact(t *testing.T) {
	cases := []struct{ d, D, want int }{
		{2, 0, 1}, {2, 10, 1024}, {3, 4, 81}, {10, 6, 1000000}, {1, 30, 1},
	}
	for _, tc := range cases {
		if got := Pow(tc.d, tc.D); got != tc.want {
			t.Errorf("Pow(%d,%d) = %d, want %d", tc.d, tc.D, got, tc.want)
		}
	}
}

// TestLargestWordsRoundTrip drives word↔integer conversion at the very
// top of the representable range for each boundary pair: the all-(d-1)
// word of length Dmax is d^Dmax - 1 and must survive both directions,
// and Int's own accumulation guard must stay quiet on it.
func TestLargestWordsRoundTrip(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skipf("boundary table assumes 64-bit int, have %d", strconv.IntSize)
	}
	for _, tc := range powBoundaries {
		n := Pow(tc.d, tc.maxD)
		for _, u := range []int{0, 1, n / 2, n - 2, n - 1} {
			w, err := FromInt(tc.d, tc.maxD, u)
			if err != nil {
				t.Fatalf("FromInt(%d,%d,%d): %v", tc.d, tc.maxD, u, err)
			}
			if got := w.Int(); got != u {
				t.Errorf("d=%d D=%d: round-trip %d -> %s -> %d", tc.d, tc.maxD, u, w, got)
			}
		}
		// One value past the top must be rejected by FromInt, not wrapped.
		if _, err := FromInt(tc.d, tc.maxD, n-1+1); err == nil && tc.d > 1 {
			t.Errorf("FromInt(%d,%d,%d) accepted a value equal to d^D", tc.d, tc.maxD, n)
		}
	}
}

// TestIntGuardFires pins the guard added to Int: a word longer than the
// int capacity (constructible through New/WithLetter, which impose no
// joint d^D bound) panics instead of silently wrapping.
func TestIntGuardFires(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skipf("assumes 64-bit int, have %d", strconv.IntSize)
	}
	// The all-ones word of length 63 over Z_2 is 2^63 - 1 = MaxInt64
	// exactly, so it must convert; the all-ones word of length 64 is the
	// first that cannot.
	fits := New(2, 63)
	for i := 0; i < fits.Len(); i++ {
		fits = fits.WithLetter(i, 1)
	}
	if got := fits.Int(); got != math.MaxInt64 {
		t.Errorf("all-ones length-63 binary word = %d, want MaxInt64", got)
	}
	over := New(2, 64)
	for i := 0; i < over.Len(); i++ {
		over = over.WithLetter(i, 1)
	}
	mustPanicMsg(t, "word: word value overflows int", func() { over.Int() })

	// A high set bit alone is enough: 2^63 itself does not fit.
	bit := New(2, 64).WithLetter(63, 1)
	mustPanicMsg(t, "word: word value overflows int", func() { bit.Int() })
}

func TestPowInvalidArguments(t *testing.T) {
	mustPanicMsg(t, "word: invalid Pow arguments", func() { Pow(0, 3) })
	mustPanicMsg(t, "word: invalid Pow arguments", func() { Pow(2, -1) })
	for _, c := range [][2]int{{0, 3}, {2, -1}, {-2, 2}} {
		if got, ok := PowChecked(c[0], c[1]); ok {
			t.Errorf("PowChecked(%d,%d) = %d, true; want invalid", c[0], c[1], got)
		}
	}
	if got, ok := PowChecked(1, math.MaxInt); !ok || got != 1 {
		t.Errorf("PowChecked(1, MaxInt) = %d, %v, want 1, true", got, ok)
	}
}
