package exec

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// refEncodeField and refEncodeRow are the strings.Builder encoders the
// append-based codec replaced, kept as the reference its output must match
// byte for byte.
func refEncodeField(v Value) string {
	switch v.T {
	case TypeNull:
		return nullField
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") && s != "NaN" {
			s += ".0"
		}
		return s
	case TypeString:
		return refEscapeString(v.S)
	case TypeBool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return nullField
	}
}

func refEscapeString(s string) string {
	if !strings.ContainsAny(s, "\\\t\n\r") {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '\t':
			sb.WriteString(`\t`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		default:
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}

func refEncodeRow(r Row) string {
	if len(r) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, v := range r {
		if i > 0 {
			sb.WriteByte('\t')
		}
		sb.WriteString(refEncodeField(v))
	}
	return sb.String()
}

// codecEdgeValues are the values most likely to expose a formatting
// difference between the encoders.
var codecEdgeValues = []Value{
	Null(),
	Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
	Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
	Float(math.Copysign(0, -1)), Float(0), Float(3), Float(-3),
	Float(1e21), Float(1e20), Float(1e-7), Float(1e-6), Float(123456789012),
	Float(math.MaxFloat64), Float(math.SmallestNonzeroFloat64),
	Str(""), Str("plain"), Str("a\tb"), Str("a\nb"), Str("a\rb"), Str(`a\b`),
	Str(`\N`), Str(`x\Ny`), Str("\t\n\r\\"), Str("N"),
	Bool(true), Bool(false),
}

func TestAppendEncodersMatchReference(t *testing.T) {
	for _, v := range codecEdgeValues {
		if got, want := EncodeField(v), refEncodeField(v); got != want {
			t.Errorf("EncodeField(%#v) = %q, reference %q", v, got, want)
		}
		if got, want := string(AppendField([]byte("pre"), v)), "pre"+refEncodeField(v); got != want {
			t.Errorf("AppendField(%#v) = %q, reference %q", v, got, want)
		}
	}
	if got, want := EncodeRow(codecEdgeValues), refEncodeRow(codecEdgeValues); got != want {
		t.Errorf("EncodeRow(edge values) = %q, reference %q", got, want)
	}
	if got := EncodeRow(nil); got != "" {
		t.Errorf("EncodeRow(nil) = %q, want empty", got)
	}
	f := func(g1, g2, g3 valueGen) bool {
		row := Row{g1.V, g2.V, g3.V}
		return EncodeRow(row) == refEncodeRow(row) && EncodeKey(row) == refEncodeRow(row)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3000; trial++ {
		row := Row{randomStringValue(r), Float(r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20)))}
		if got, want := EncodeRow(row), refEncodeRow(row); got != want {
			t.Fatalf("EncodeRow(%#v) = %q, reference %q", row, got, want)
		}
	}
}

// TestDecodeErrorText pins the error text of the walking decoders; it is
// the text the strings.Split decoder produced, and the demanded-column
// decoder must report the same for every line, demanded column or not.
func TestDecodeErrorText(t *testing.T) {
	s := NewSchema(
		Column{Table: "t", Name: "a", Type: TypeInt},
		Column{Name: "b", Type: TypeString},
		Column{Name: "c", Type: TypeFloat},
	)
	tests := []struct{ line, want string }{
		{"1\t2", "row has 2 fields, schema (t.a int, b string, c float) has 3"},
		{"", "row has 1 fields, schema (t.a int, b string, c float) has 3"},
		{"1\tx\t2.5\t", "row has 4 fields, schema (t.a int, b string, c float) has 3"},
		{"zz\tx\t2.5", `column t.a: parse int field "zz": strconv.ParseInt: parsing "zz": invalid syntax`},
		{"1\ta\\q\t2.5", `column b: unknown escape 'q' in field "a\\q"`},
		{"1\tx\tnope", `column c: parse float field "nope": strconv.ParseFloat: parsing "nope": invalid syntax`},
		{"\t\t", `column t.a: parse int field "": strconv.ParseInt: parsing "": invalid syntax`},
	}
	decoders := map[string]func(string) (Row, error){
		"DecodeRow":   func(line string) (Row, error) { return DecodeRow(line, s) },
		"all columns": NewColumnDecoder(s, []int{0, 1, 2}).Decode,
		"column 1":    NewColumnDecoder(s, []int{1}).Decode,
		"none":        NewColumnDecoder(s, nil).Decode,
	}
	for name, decode := range decoders {
		for _, tt := range tests {
			_, err := decode(tt.line)
			if err == nil || err.Error() != tt.want {
				t.Errorf("%s(%q) error = %v, want %q", name, tt.line, err, tt.want)
			}
		}
	}
	// A one-column schema reads the empty line as one empty field.
	one := NewSchema(Column{Name: "s", Type: TypeString})
	if r, err := DecodeRow("", one); err != nil || len(r) != 1 || r[0] != Str("") {
		t.Errorf(`DecodeRow("") on one string column = %v, %v`, r, err)
	}
}

func TestColumnDecoder(t *testing.T) {
	s := NewSchema(
		Column{Name: "a", Type: TypeInt},
		Column{Name: "b", Type: TypeString},
		Column{Name: "c", Type: TypeFloat},
	)
	line := EncodeRow(Row{Int(7), Str("x\ty"), Float(2.5)})
	full, err := DecodeRow(line, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]int{{0, 1, 2}, {2, 0}, {1}, {}, {2, 2, 0, 2}} {
		got, err := NewColumnDecoder(s, cols).Decode(line)
		if err != nil {
			t.Fatalf("cols %v: %v", cols, err)
		}
		if len(got) != len(cols) {
			t.Fatalf("cols %v: width %d", cols, len(got))
		}
		for i, c := range cols {
			if got[i] != full[c] {
				t.Errorf("cols %v: position %d = %v, want %v", cols, i, got[i], full[c])
			}
		}
	}
}

// TestUntypedDecodePins pins schema-less type inference on the inputs
// where a syntax pre-check could drift from strconv.
func TestUntypedDecodePins(t *testing.T) {
	tests := []struct {
		field string
		want  Value
	}{
		{"+5", Int(5)},
		{"-", Str("-")},
		{"+", Str("+")},
		{"007", Int(7)},
		{"-0", Int(0)},
		{"9223372036854775807", Int(math.MaxInt64)},
		{"9223372036854775808", Str("9223372036854775808")},
		{"-9223372036854775808", Int(math.MinInt64)},
		{"1e5", Float(1e5)},
		{"e5", Str("e5")},
		{".5", Float(0.5)},
		{"1.", Float(1)},
		{"1_000", Str("1_000")},
		{"0x10", Str("0x10")},
		{"Infinity", Float(math.Inf(1))},
		{"-Inf", Float(math.Inf(-1))},
		{"inf", Str("inf")},
		{"nan", Str("nan")},
		{"Eve", Str("Eve")},
	}
	for _, tt := range tests {
		got, err := DecodeField(tt.field, TypeNull)
		if err != nil || got != tt.want {
			t.Errorf("untyped %q = %#v, %v; want %#v", tt.field, got, err, tt.want)
		}
	}
	if got, err := DecodeField("NaN", TypeNull); err != nil || got.T != TypeFloat || !math.IsNaN(got.F) {
		t.Errorf(`untyped "NaN" = %#v, %v; want float NaN`, got, err)
	}
}

// TestUntypedDecodeAllocs checks that inference does not pay for the parse
// errors of fields that are not numbers.
func TestUntypedDecodeAllocs(t *testing.T) {
	for _, field := range []string{"Eve", "customer#42", "-", "2.5", "17"} {
		if n := testing.AllocsPerRun(100, func() { _, _ = DecodeField(field, TypeNull) }); n != 0 {
			t.Errorf("untyped %q: %v allocs, want 0", field, n)
		}
	}
}
