package word

import (
	"math/rand"
	"testing"
)

// TestDigitMapMatchesLetterSums checks the odometer against the letter-wise
// sum Σ_i place[i][x_i] on every label, including the degenerate
// alphabet d = 1, the one-letter words D = 1 and the empty word D = 0.
func TestDigitMapMatchesLetterSums(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for d := 1; d <= 5; d++ {
		for D := 0; D <= 6; D++ {
			place := NewPlace(d, D)
			for _, row := range place {
				for x := range row {
					row[x] = rng.Intn(1000) - 500
				}
			}
			got := DigitMap(d, D, place)
			if len(got) != Pow(d, D) {
				t.Fatalf("d=%d D=%d: %d labels, want %d", d, D, len(got), Pow(d, D))
			}
			for u := range got {
				x := MustFromInt(d, D, u)
				want := 0
				for i := 0; i < D; i++ {
					want += place[i][x.Letter(i)]
				}
				if got[u] != want {
					t.Fatalf("d=%d D=%d: DigitMap[%d] = %d, letter sum %d", d, D, u, got[u], want)
				}
			}
		}
	}
}

func TestDigitMapRejectsMisshapenTable(t *testing.T) {
	mustPanicMsg(t, "word: DigitMap needs 3 place rows, got 2", func() { DigitMap(2, 3, NewPlace(2, 2)) })
	mustPanicMsg(t, "word: DigitMap place row has 3 entries, want 2", func() { DigitMap(2, 2, NewPlace(3, 2)) })
}
