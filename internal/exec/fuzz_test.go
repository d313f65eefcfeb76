package exec

import (
	"math"
	"strings"
	"testing"
)

// FuzzDecodeRowUntyped asserts the codec is total on arbitrary input
// (decode either succeeds or errors, never panics) and idempotent on its
// own output: re-encoding a decoded row and decoding again is stable.
func FuzzDecodeRowUntyped(f *testing.F) {
	seeds := []string{
		"",
		"1\t2.5\ttext\ttrue",
		`\N`,
		`a\tb\\c\nd`,
		"\t\t",
		`x\qy`, // invalid escape
		"-0.0\tNaN\t+Inf",
		"9223372036854775807\t-9223372036854775808",
		// Inputs at the edge of the integer and float syntax pre-checks.
		"+5", "-", "007", "9223372036854775808", "1e5",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		row, err := DecodeRowUntyped(line)
		if err != nil {
			return
		}
		enc := EncodeRow(row)
		again, err := DecodeRowUntyped(enc)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %q -> %q: %v", line, enc, err)
		}
		if EncodeRow(again) != enc {
			t.Fatalf("codec not idempotent: %q -> %q -> %q", line, enc, EncodeRow(again))
		}
	})
}

// FuzzOrderedKey checks the memcomparable property EncodeOrderedKey exists
// for: byte order of the encodings must equal (Compare, desc-flag) order of
// the value lists, and Compare-equal lists must encode identically. There
// is deliberately no decoder, so order preservation is the whole contract.
//
// Documented collisions are skipped rather than asserted around: NaN
// (Compare treats it as equal to everything) and integers at or beyond
// 2^53 (encoded through float64). -0.0 is normalized to +0.0 — the two
// compare equal but have distinct float bit patterns.
func FuzzOrderedKey(f *testing.F) {
	f.Add("1\t2.5\ttext\ttrue", "1\t2.5\ttext\tfalse", uint8(0))
	f.Add(`\N`+"\tabc", "0\tabd", uint8(2))
	f.Add("-1.5\t-2", "1\t-2", uint8(3))
	f.Add("a", "a\t0", uint8(1))
	f.Add("prefix", "prefixer", uint8(1))
	f.Fuzz(func(t *testing.T, la, lb string, descBits uint8) {
		ra, ok := normalizedRow(la)
		if !ok {
			return
		}
		rb, ok := normalizedRow(lb)
		if !ok {
			return
		}
		n := len(ra)
		if len(rb) < n {
			n = len(rb)
		}
		desc := make([]bool, n)
		for i := range desc {
			desc[i] = descBits&(1<<(i%8)) != 0
		}

		want := 0
		for i := 0; i < n && want == 0; i++ {
			c := Compare(ra[i], rb[i])
			if desc[i] {
				c = -c
			}
			want = c
		}
		if want == 0 {
			// Component encodings are prefix-free, so on an equal common
			// prefix the row with fewer components sorts first.
			switch {
			case len(ra) < len(rb):
				want = -1
			case len(ra) > len(rb):
				want = 1
			}
		}

		ka := EncodeOrderedKey(ra, desc)
		kb := EncodeOrderedKey(rb, desc)
		if got := sign(strings.Compare(ka, kb)); got != want {
			t.Fatalf("byte order %d != value order %d for %v vs %v (desc %v)", got, want, ra, rb, desc)
		}
		if want == 0 && ka != kb {
			t.Fatalf("Compare-equal rows encode differently: %v vs %v -> %x vs %x", ra, rb, ka, kb)
		}
	})
}

// normalizedRow decodes a fuzz line and rewrites it into the domain where
// the ordered-key encoding is injective on Compare classes.
func normalizedRow(line string) (Row, bool) {
	row, err := DecodeRowUntyped(line)
	if err != nil {
		return nil, false
	}
	for i, v := range row {
		switch v.T {
		case TypeFloat:
			if math.IsNaN(v.F) {
				return nil, false
			}
			if v.F == 0 {
				row[i] = Float(0)
			}
		case TypeInt:
			if v.I >= 1<<53 || v.I <= -(1<<53) {
				return nil, false
			}
		}
	}
	return row, true
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}
