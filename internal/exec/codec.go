package exec

import (
	"fmt"
	"strconv"
	"strings"
)

// The row codec renders rows as tab-separated fields, one row per line,
// in the style of Hive's default text SerDe: NULL is `\N`, and tab,
// newline, carriage return and backslash are backslash-escaped so the
// encoding is injective. Floats always carry a '.' or exponent so that
// DecodeField can recover their type without a schema.

const nullField = `\N`

// EncodeField renders a single value as a codec field.
func EncodeField(v Value) string {
	if v.T == TypeString && !needsEscape(v.S) {
		return v.S
	}
	var buf [64]byte
	return string(AppendField(buf[:0], v))
}

// AppendField appends the codec rendering of v to dst and returns the
// extended buffer.
func AppendField(dst []byte, v Value) []byte {
	switch v.T {
	case TypeNull:
		return append(dst, nullField...)
	case TypeInt:
		return strconv.AppendInt(dst, v.I, 10)
	case TypeFloat:
		start := len(dst)
		dst = strconv.AppendFloat(dst, v.F, 'g', -1, 64)
		if bareInteger(dst[start:]) {
			dst = append(dst, ".0"...)
		}
		return dst
	case TypeString:
		return appendEscaped(dst, v.S)
	case TypeBool:
		if v.B {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	default:
		return append(dst, nullField...)
	}
}

// bareInteger reports whether a 'g'-formatted float reads as an integer:
// no '.', no exponent, and not NaN or ±Inf.
func bareInteger(b []byte) bool {
	for _, c := range b {
		if (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}

func needsEscape(s string) bool { return strings.ContainsAny(s, "\\\t\n\r") }

// appendEscaped appends s with tab, newline, carriage return and backslash
// backslash-escaped.
func appendEscaped(dst []byte, s string) []byte {
	if !needsEscape(s) {
		return append(dst, s...)
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\t':
			dst = append(dst, '\\', 't')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

func unescapeString(s string) (string, error) {
	if !strings.Contains(s, `\`) {
		return s, nil
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			sb.WriteByte(s[i])
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("dangling escape in field %q", s)
		}
		switch s[i] {
		case '\\':
			sb.WriteByte('\\')
		case 't':
			sb.WriteByte('\t')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		case 'N':
			// `\N` alone means NULL; embedded it round-trips as literal.
			sb.WriteString("N")
		default:
			return "", fmt.Errorf("unknown escape %q in field %q", s[i], s)
		}
	}
	return sb.String(), nil
}

// DecodeField parses a field produced by EncodeField into a value of the
// given type. With TypeNull as the expected type the field's own syntax
// decides (used for schema-less intermediate data): integers, floats,
// true/false and NULL are recognized, anything else is a string.
func DecodeField(field string, t Type) (Value, error) {
	if field == nullField {
		return Null(), nil
	}
	switch t {
	case TypeInt:
		i, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse int field %q: %w", field, err)
		}
		return Int(i), nil
	case TypeFloat:
		f, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse float field %q: %w", field, err)
		}
		return Float(f), nil
	case TypeBool:
		switch field {
		case "true":
			return Bool(true), nil
		case "false":
			return Bool(false), nil
		}
		return Value{}, fmt.Errorf("parse bool field %q", field)
	case TypeString:
		s, err := unescapeString(field)
		if err != nil {
			return Value{}, err
		}
		return Str(s), nil
	case TypeNull:
		// Untyped: infer from syntax. The syntax checks only skip parses
		// that would fail, so a plain string costs no parse error.
		if intSyntax(field) {
			if i, err := strconv.ParseInt(field, 10, 64); err == nil {
				return Int(i), nil
			}
		}
		if floatLead(field) && (strings.ContainsAny(field, ".eE") || strings.Contains(field, "Inf") || field == "NaN") {
			if f, err := strconv.ParseFloat(field, 64); err == nil {
				return Float(f), nil
			}
		}
		if field == "true" {
			return Bool(true), nil
		}
		if field == "false" {
			return Bool(false), nil
		}
		s, err := unescapeString(field)
		if err != nil {
			return Value{}, err
		}
		return Str(s), nil
	default:
		return Value{}, fmt.Errorf("decode field: unsupported type %v", t)
	}
}

// intSyntax reports whether s is an optionally signed run of decimal
// digits: exactly the strings strconv.ParseInt(s, 10, 64) accepts, save
// for out-of-range values.
func intSyntax(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// floatLead reports whether s starts (after an optional sign) the way every
// string strconv.ParseFloat accepts does: a digit, a '.', or the first
// letter of "inf", "infinity" or "nan" in any case.
func floatLead(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
		return true
	}
	return false
}

// EncodeRow renders a row as tab-separated fields.
func EncodeRow(r Row) string {
	var buf [128]byte
	return string(AppendRow(buf[:0], r))
}

// AppendRow appends the tab-separated rendering of r to dst and returns the
// extended buffer.
func AppendRow(dst []byte, r Row) []byte {
	for i, v := range r {
		if i > 0 {
			dst = append(dst, '\t')
		}
		dst = AppendField(dst, v)
	}
	return dst
}

// cutField splits the first tab-separated field off line.
func cutField(line string) (field, rest string) {
	if i := strings.IndexByte(line, '\t'); i >= 0 {
		return line[:i], line[i+1:]
	}
	return line, ""
}

// decodeInto walks every field of line, parsing each with its schema
// column's type, and stores column i at row[slot[i]] (slot nil: at row[i];
// a negative slot: parsed and type-checked, then dropped). The field count
// is checked before any field is parsed.
func decodeInto(row Row, line string, s *Schema, slot []int) error {
	if n := strings.Count(line, "\t") + 1; n != len(s.Cols) {
		return fmt.Errorf("row has %d fields, schema %s has %d", n, s, len(s.Cols))
	}
	for i, c := range s.Cols {
		var f string
		f, line = cutField(line)
		v, err := DecodeField(f, c.Type)
		if err != nil {
			return fmt.Errorf("column %s: %w", c.QualifiedName(), err)
		}
		switch {
		case slot == nil:
			row[i] = v
		case slot[i] >= 0:
			row[slot[i]] = v
		}
	}
	return nil
}

// DecodeRow parses a tab-separated line into a row using the schema's
// column types.
func DecodeRow(line string, s *Schema) (Row, error) {
	row := make(Row, len(s.Cols))
	if err := decodeInto(row, line, s, nil); err != nil {
		return nil, err
	}
	return row, nil
}

// ColumnDecoder decodes lines of one schema into rows holding only the
// demanded columns. Every other field is still parsed and type-checked
// (and then dropped), so a line DecodeRow rejects is rejected here with
// the same error.
type ColumnDecoder struct {
	schema *Schema
	width  int
	slot   []int    // schema column -> first row position, or -1
	copies [][2]int // (from, to) row positions of repeated demands
}

// NewColumnDecoder returns a decoder whose rows hold the columns cols of s,
// in that order; a column may be demanded more than once.
func NewColumnDecoder(s *Schema, cols []int) *ColumnDecoder {
	d := &ColumnDecoder{schema: s, width: len(cols), slot: make([]int, len(s.Cols))}
	for i := range d.slot {
		d.slot[i] = -1
	}
	for pos, c := range cols {
		if first := d.slot[c]; first >= 0 {
			d.copies = append(d.copies, [2]int{first, pos})
			continue
		}
		d.slot[c] = pos
	}
	return d
}

// Decode parses one line into a row of the demanded columns.
func (d *ColumnDecoder) Decode(line string) (Row, error) {
	row := make(Row, d.width)
	if err := decodeInto(row, line, d.schema, d.slot); err != nil {
		return nil, err
	}
	for _, c := range d.copies {
		row[c[1]] = row[c[0]]
	}
	return row, nil
}

// DecodeRowUntyped parses a tab-separated line inferring each field's type
// from its syntax. Used for intermediate MapReduce values where only field
// count is known.
func DecodeRowUntyped(line string) (Row, error) {
	if line == "" {
		return Row{}, nil
	}
	row, err := AppendRowUntyped(make(Row, 0, strings.Count(line, "\t")+1), line)
	if err != nil {
		return nil, err
	}
	return row, nil
}

// AppendRowUntyped decodes line as DecodeRowUntyped does and appends its
// fields to dst, so a batch of rows can share one backing array.
func AppendRowUntyped(dst Row, line string) (Row, error) {
	if line == "" {
		return dst, nil
	}
	for {
		f, rest, more := strings.Cut(line, "\t")
		v, err := DecodeField(f, TypeNull)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
		if !more {
			return dst, nil
		}
		line = rest
	}
}

// EncodeKey renders a list of values as a grouping/partition key. The
// encoding is injective (the EncodeRow format) and preserves nothing
// about ordering; use Compare on decoded values to sort keys.
func EncodeKey(vals []Value) string { return EncodeRow(Row(vals)) }
