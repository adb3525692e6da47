// Package word implements fixed-length words over the alphabet Z_d.
//
// Vertices of the de Bruijn digraph B(d, D) are the d^D words of length D
// over Z_d (Definition 2.2 of Coudert, Ferreira, Pérennes, IPDPS 2000).
// Following the paper, a word x = x_{D-1} x_{D-2} ... x_1 x_0 is indexed so
// that x_0 is the rightmost letter, and the standard integer correspondence
// is the Horner sum u = Σ_{i} x_i d^i (Remark 2.6). The paper views words as
// elements of the vector space Z_d^D with canonical basis e_0, ..., e_{D-1}
// (Definition 3.5): letter x_i is the coefficient of e_i.
package word

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/perm"
)

// Word is a word over Z_d stored least-significant letter first:
// w[i] is x_i, the coefficient of basis vector e_i. The alphabet size d is
// carried alongside the letters because distinct alphabets give distinct
// digraphs even for equal letter slices.
type Word struct {
	letters []int
	d       int
}

// New returns the all-zero word of length length over Z_d.
func New(d, length int) Word {
	if d < 1 {
		panic("word: alphabet size must be >= 1")
	}
	if length < 0 {
		panic("word: negative length")
	}
	return Word{letters: make([]int, length), d: d}
}

// FromLetters builds a word from letters given in paper order, most
// significant first: FromLetters(2, 1, 0, 1) is the word 101, i.e.
// x_2=1, x_1=0, x_0=1.
func FromLetters(d int, letters ...int) (Word, error) {
	w := New(d, len(letters))
	for i, letter := range letters {
		if letter < 0 || letter >= d {
			return Word{}, fmt.Errorf("word: letter %d out of alphabet Z_%d", letter, d)
		}
		w.letters[len(letters)-1-i] = letter
	}
	return w, nil
}

// MustFromLetters is FromLetters panicking on error; for tests and tables.
func MustFromLetters(d int, letters ...int) Word {
	w, err := FromLetters(d, letters...)
	if err != nil {
		//lint:ignore panicstyle the error from FromLetters already carries the "word: " prefix
		panic(err)
	}
	return w
}

// FromInt returns the length-D word representing u in base d via the Horner
// correspondence u = Σ x_i d^i of Remark 2.6. u must lie in [0, d^D).
func FromInt(d, D, u int) (Word, error) {
	if u < 0 {
		return Word{}, fmt.Errorf("word: negative value %d", u)
	}
	w := New(d, D)
	for i := 0; i < D; i++ {
		w.letters[i] = u % d
		u /= d
	}
	if u != 0 {
		return Word{}, fmt.Errorf("word: value does not fit in %d letters over Z_%d", D, d)
	}
	return w, nil
}

// MustFromInt is FromInt panicking on error.
func MustFromInt(d, D, u int) Word {
	w, err := FromInt(d, D, u)
	if err != nil {
		//lint:ignore panicstyle the error from FromInt already carries the "word: " prefix
		panic(err)
	}
	return w
}

// Int returns the Horner value Σ x_i d^i of w. Words built through
// FromInt always fit by construction, but New permits arbitrary lengths,
// so Int guards the accumulation and panics if the value exceeds int.
func (w Word) Int() int {
	u := 0
	for i := len(w.letters) - 1; i >= 0; i-- {
		letter := w.letters[i]
		if u > (math.MaxInt-letter)/w.d {
			panic("word: word value overflows int")
		}
		u = u*w.d + letter
	}
	return u
}

// D returns the alphabet size.
func (w Word) D() int { return w.d }

// Len returns the word length D.
func (w Word) Len() int { return len(w.letters) }

// Letter returns x_i, the letter at index i (i = 0 is the rightmost letter).
func (w Word) Letter(i int) int { return w.letters[i] }

// WithLetter returns a copy of w with x_i set to letter.
func (w Word) WithLetter(i, letter int) Word {
	if letter < 0 || letter >= w.d {
		panic(fmt.Sprintf("word: letter %d out of alphabet Z_%d", letter, w.d))
	}
	out := w.Clone()
	out.letters[i] = letter
	return out
}

// Clone returns an independent copy of w.
func (w Word) Clone() Word {
	out := Word{letters: make([]int, len(w.letters)), d: w.d}
	copy(out.letters, w.letters)
	return out
}

// Equal reports whether two words agree in alphabet, length and letters.
func (w Word) Equal(v Word) bool {
	if w.d != v.d || len(w.letters) != len(v.letters) {
		return false
	}
	for i := range w.letters {
		if w.letters[i] != v.letters[i] {
			return false
		}
	}
	return true
}

// LeftShiftAppend returns the de Bruijn successor word
// x_{D-2} ... x_1 x_0 α: the cyclic left shift with the rightmost letter
// replaced by α (Definition 2.2).
func (w Word) LeftShiftAppend(alpha int) Word {
	if alpha < 0 || alpha >= w.d {
		panic(fmt.Sprintf("word: letter %d out of alphabet Z_%d", alpha, w.d))
	}
	D := len(w.letters)
	out := New(w.d, D)
	// New x_i is old x_{i-1} for i >= 1; new x_0 is alpha.
	for i := 1; i < D; i++ {
		out.letters[i] = w.letters[i-1]
	}
	out.letters[0] = alpha
	return out
}

// ApplyAlphabet applies a permutation σ of Z_d letterwise, the natural
// extension of Definition 3.6: (σx)_i = σ(x_i).
func (w Word) ApplyAlphabet(sigma perm.Perm) Word {
	if sigma.N() != w.d {
		panic("word: alphabet permutation size mismatch")
	}
	out := w.Clone()
	for i, letter := range out.letters {
		out.letters[i] = sigma.Apply(letter)
	}
	return out
}

// ApplyIndex applies the linear map f→ of Definition 3.5 induced by a
// permutation f of Z_D: f→(e_i) = e_{f(i)}, so letter x_i moves to index
// f(i) — (f→ x)_{f(i)} = x_i.
func (w Word) ApplyIndex(f perm.Perm) Word {
	if f.N() != len(w.letters) {
		panic("word: index permutation size mismatch")
	}
	out := New(w.d, len(w.letters))
	for i, letter := range w.letters {
		out.letters[f.Apply(i)] = letter
	}
	return out
}

// Concat returns the word whose paper-order spelling is the spelling of w
// followed by the spelling of v (w occupies the high-order letters).
// Both words must share an alphabet.
func (w Word) Concat(v Word) Word {
	if w.d != v.d {
		panic("word: concat alphabet mismatch")
	}
	out := New(w.d, len(w.letters)+len(v.letters))
	copy(out.letters, v.letters)
	copy(out.letters[len(v.letters):], w.letters)
	return out
}

// Slice returns the sub-word x_{hi-1} ... x_{lo} (letters with indices in
// [lo, hi)), preserving the alphabet.
func (w Word) Slice(lo, hi int) Word {
	if lo < 0 || hi > len(w.letters) || lo > hi {
		panic("word: slice bounds out of range")
	}
	out := New(w.d, hi-lo)
	copy(out.letters, w.letters[lo:hi])
	return out
}

// Letters returns the letters in paper order (most significant first).
func (w Word) Letters() []int {
	out := make([]int, len(w.letters))
	for i := range out {
		out[i] = w.letters[len(w.letters)-1-i]
	}
	return out
}

// String renders the word in paper order. Alphabets up to size 10 render
// as digit strings ("0110"); larger alphabets render dot-separated
// ("3.11.0").
func (w Word) String() string {
	if len(w.letters) == 0 {
		return "ε"
	}
	var b strings.Builder
	for i := len(w.letters) - 1; i >= 0; i-- {
		if w.d > 10 {
			if i != len(w.letters)-1 {
				b.WriteByte('.')
			}
			fmt.Fprintf(&b, "%d", w.letters[i])
		} else {
			fmt.Fprintf(&b, "%d", w.letters[i])
		}
	}
	return b.String()
}

// Parse parses a digit string in paper order over Z_d (d ≤ 10).
func Parse(d int, s string) (Word, error) {
	if d < 1 || d > 10 {
		return Word{}, fmt.Errorf("word: Parse supports alphabets up to 10, got %d", d)
	}
	letters := make([]int, 0, len(s))
	for _, r := range s {
		if r < '0' || r > '9' {
			return Word{}, fmt.Errorf("word: invalid digit %q", r)
		}
		letters = append(letters, int(r-'0'))
	}
	return FromLetters(d, letters...)
}

// Pow returns d^D, the number of words of length D over Z_d, panicking on
// overflow.
func Pow(d, D int) int {
	if d < 1 || D < 0 {
		panic("word: invalid Pow arguments")
	}
	n, ok := PowChecked(d, D)
	if !ok {
		panic("word: d^D overflows int")
	}
	return n
}

// PowChecked returns d^D and true, or 0 and false when d < 1, D < 0 or
// d^D overflows int. It never panics and takes O(min(D, 64)) steps, so
// it can size-check untrusted parameters before any O(d^D) work.
func PowChecked(d, D int) (int, bool) {
	if d < 1 || D < 0 {
		return 0, false
	}
	if d == 1 {
		return 1, true
	}
	n := 1
	for i := 0; i < D; i++ {
		if n > math.MaxInt/d {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// DigitMap evaluates a digit-wise map on every label of Z_d^D: out[u] =
// Σ_i place[i][x_i] for u = Σ_i x_i d^i, in increasing u. place is a D×d
// table, one row per letter position; every isomorphism witness and
// successor rule of Section 3 substitutes letters position by position
// and moves them to new positions, which is exactly such a table (row i
// holds τ_i(x)·d^π(i)). An odometer over x_1 … x_{D-1} keeps the high
// positions' partial sum, so each label costs one add plus an amortized
// O(1) carry, and no Word is ever materialized.
func DigitMap(d, D int, place [][]int) []int {
	n := Pow(d, D)
	if len(place) != D {
		panic(fmt.Sprintf("word: DigitMap needs %d place rows, got %d", D, len(place)))
	}
	for _, row := range place {
		if len(row) != d {
			panic(fmt.Sprintf("word: DigitMap place row has %d entries, want %d", len(row), d))
		}
	}
	out := make([]int, n)
	if D == 0 {
		return out
	}
	x := make([]int, D) // the odometer; x[0] is swept by the inner loop
	high := 0
	for i := 1; i < D; i++ {
		high += place[i][0]
	}
	for u := 0; ; {
		for _, w := range place[0] {
			out[u] = high + w
			u++
		}
		if u == n {
			return out
		}
		i := 1
		for x[i] == d-1 {
			high += place[i][0] - place[i][d-1]
			x[i] = 0
			i++
		}
		high += place[i][x[i]+1] - place[i][x[i]]
		x[i]++
	}
}

// NewPlace returns a zero D×d place table for DigitMap, backed by one
// slab.
func NewPlace(d, D int) [][]int {
	slab := make([]int, D*d)
	place := make([][]int, D)
	for i := range place {
		place[i] = slab[i*d : (i+1)*d : (i+1)*d]
	}
	return place
}

// Enumerate calls visit for every word of length D over Z_d in increasing
// Horner-value order. The Word passed to visit is freshly allocated each
// call and may be retained.
func Enumerate(d, D int, visit func(Word) bool) {
	n := Pow(d, D)
	for u := 0; u < n; u++ {
		if !visit(MustFromInt(d, D, u)) {
			return
		}
	}
}

// OverlapSuffixPrefix returns the largest k ≤ D such that the last k letters
// of src (low indices x_{k-1}..x_0) equal the first k letters of dst (high
// indices x_{D-1}..x_{D-k}). This is the quantity that determines the
// de Bruijn shortest-path length D - k between two vertices.
func OverlapSuffixPrefix(src, dst Word) int {
	if src.d != dst.d || len(src.letters) != len(dst.letters) {
		panic("word: overlap on mismatched words")
	}
	D := len(src.letters)
	for k := D; k > 0; k-- {
		match := true
		for i := 0; i < k; i++ {
			// src letter x_{k-1-i} against dst letter x_{D-1-i}.
			if src.letters[k-1-i] != dst.letters[D-1-i] {
				match = false
				break
			}
		}
		if match {
			return k
		}
	}
	return 0
}
