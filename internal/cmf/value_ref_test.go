package cmf

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ysmart/internal/exec"
)

// refEncodeTagged is the strings.Builder encoder the append-based one
// replaced, kept as the reference its output must match byte for byte.
func refEncodeTagged(input int, excluded []int, row exec.Row) string {
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(input))
	if len(excluded) > 0 {
		sb.WriteByte('!')
		for i, id := range excluded {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(id))
		}
	}
	sb.WriteByte('|')
	sb.WriteString(exec.EncodeRow(row))
	return sb.String()
}

func TestEncodeTaggedMatchesReference(t *testing.T) {
	edge := exec.Row{
		exec.Null(), exec.Int(math.MinInt64), exec.Float(math.NaN()), exec.Float(math.Inf(-1)),
		exec.Float(math.Copysign(0, -1)), exec.Float(1e21), exec.Float(1e-7),
		exec.Str("a\tb\nc\rd\\e"), exec.Str(`\N`), exec.Bool(true),
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		input := r.Intn(4)
		var excluded []int
		for i := r.Intn(4); i > 0; i-- {
			excluded = append(excluded, r.Intn(100))
		}
		row := make(exec.Row, r.Intn(len(edge)+1))
		for i := range row {
			row[i] = edge[r.Intn(len(edge))]
		}
		got, want := EncodeTagged(input, excluded, row), refEncodeTagged(input, excluded, row)
		if got != want {
			t.Fatalf("EncodeTagged(%d, %v, %v) = %q, reference %q", input, excluded, row, got, want)
		}
	}
}
