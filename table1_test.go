package repro

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/otis"
)

// Full reproduction of Table 1: the degree–diameter search for OTIS
// digraphs H(p, q, 2) at diameters 8, 9 and 10. Each test scans from the
// first row the paper displays up to the Moore bound (beyond which no
// digraph of that degree and diameter exists), so the "largest digraph"
// claims are verified unconditionally. Run with -v to see the table.

func tableWant8() []TableRow {
	return []TableRow{
		{N: 253, Pairs: [][2]int{{2, 253}}},
		{N: 254, Pairs: [][2]int{{2, 254}}},
		{N: 255, Pairs: [][2]int{{2, 255}}},
		{N: 256, Pairs: [][2]int{{2, 256}, {4, 128}, {16, 32}}, Note: "B(2,8)"},
		{N: 258, Pairs: [][2]int{{2, 258}}},
		{N: 264, Pairs: [][2]int{{2, 264}}},
		{N: 288, Pairs: [][2]int{{2, 288}}},
		{N: 384, Pairs: [][2]int{{2, 384}}, Note: "K(2,8)"},
	}
}

func tableWant9() []TableRow {
	return []TableRow{
		{N: 509, Pairs: [][2]int{{2, 509}}},
		{N: 510, Pairs: [][2]int{{2, 510}}},
		{N: 511, Pairs: [][2]int{{2, 511}}},
		{N: 512, Pairs: [][2]int{{2, 512}, {8, 128}}, Note: "B(2,9)"},
		{N: 513, Pairs: [][2]int{{2, 513}}},
		{N: 516, Pairs: [][2]int{{2, 516}}},
		{N: 528, Pairs: [][2]int{{2, 528}}},
		{N: 576, Pairs: [][2]int{{2, 576}}},
		{N: 768, Pairs: [][2]int{{2, 768}}, Note: "K(2,9)"},
	}
}

func tableWant10() []TableRow {
	return []TableRow{
		{N: 1022, Pairs: [][2]int{{2, 1022}}},
		{N: 1023, Pairs: [][2]int{{2, 1023}}},
		{N: 1024, Pairs: [][2]int{{2, 1024}, {4, 512}, {8, 256}, {16, 128}, {32, 64}}, Note: "B(2,10)"},
		{N: 1026, Pairs: [][2]int{{2, 1026}}},
		{N: 1032, Pairs: [][2]int{{2, 1032}}},
		{N: 1056, Pairs: [][2]int{{2, 1056}}},
		{N: 1152, Pairs: [][2]int{{2, 1152}}},
		{N: 1536, Pairs: [][2]int{{2, 1536}}, Note: "K(2,10)"},
	}
}

func runTable(t *testing.T, diam, minN int, want []TableRow) {
	t.Helper()
	rows := otis.SearchDegreeDiameter(2, diam, minN, MooreBound(2, diam))
	if testing.Verbose() {
		fmt.Printf("Table 1, D = %d (n from %d to Moore bound %d):\n",
			diam, minN, MooreBound(2, diam))
		for _, r := range rows {
			fmt.Println("  " + r.String())
		}
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("Table 1 D=%d mismatch:\n got: %v\nwant: %v", diam, rows, want)
	}
}

func TestReproduceTable1D8(t *testing.T) {
	runTable(t, 8, 253, tableWant8())
}

func TestReproduceTable1D9(t *testing.T) {
	runTable(t, 9, 509, tableWant9())
}

func TestReproduceTable1D10(t *testing.T) {
	if testing.Short() {
		t.Skip("D=10 scan in -short mode")
	}
	runTable(t, 10, 1022, tableWant10())
}

func TestKautzLargestEachDiameter(t *testing.T) {
	// "The Kautz digraph appears to be the largest digraph of degree d
	// and diameter D which has an OTIS(p,q)-layout."
	for _, diam := range []int{8, 9} {
		row, ok := LargestWithDiameter(2, diam, MooreBound(2, diam))
		if !ok {
			t.Fatalf("no OTIS digraph of diameter %d", diam)
		}
		if row.N != debruijn.KautzOrder(2, diam) {
			t.Errorf("D=%d: largest n = %d, want Kautz %d", diam, row.N, debruijn.KautzOrder(2, diam))
		}
	}
}
