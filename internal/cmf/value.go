// Package cmf implements YSmart's Common MapReduce Framework (paper §VI):
// the machinery that lets one physical MapReduce job execute the
// functionality of several correlated jobs.
//
// A common mapper reads each record once, evaluates the selection of every
// merged job ("stream"), and emits at most one common key/value pair whose
// value carries (a) the union of the columns any merged job needs and (b)
// an *inverted* tag listing the streams that must NOT see the pair —
// inverted because map outputs overlap heavily between merged jobs, so the
// exclusion list is usually empty (§VI.A). Every pair also carries its
// source-input index, the standard reduce-side-join table tag (§II.B).
//
// A common reducer dispatches each value to the merged reducers that may
// see it (Algorithm 1) and then runs post-job computations — the operators
// merged by job-flow correlation — as a small per-key dataflow graph. The
// translator (internal/translator) builds these graphs; this package only
// executes them.
package cmf

import (
	"fmt"
	"strconv"
	"strings"

	"ysmart/internal/exec"
)

// TaggedValue is one common map-output value: the union row, the index of
// the input that produced it, and the set of that input's streams excluded
// from seeing it.
type TaggedValue struct {
	Input    int   // source input index within the job
	Excluded []int // stream IDs that must not see the row; usually empty
	Row      exec.Row
}

// EncodeTagged renders a tagged value as "<input>[!excl,...]|<row>". The
// exclusion list is omitted when empty, so the common case costs two bytes
// of overhead ("0|").
func EncodeTagged(input int, excluded []int, row exec.Row) string {
	var buf [128]byte
	return string(appendTagged(buf[:0], input, excluded, row))
}

// appendTagged appends the EncodeTagged rendering to dst.
func appendTagged(dst []byte, input int, excluded []int, row exec.Row) []byte {
	dst = strconv.AppendInt(dst, int64(input), 10)
	for i, id := range excluded {
		if i == 0 {
			dst = append(dst, '!')
		} else {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	dst = append(dst, '|')
	return exec.AppendRow(dst, row)
}

// DecodeTagged parses a tagged value produced by EncodeTagged.
func DecodeTagged(s string) (TaggedValue, error) {
	tv, _, err := decodeTagged(make(exec.Row, 0, strings.Count(s, "\t")+1), s)
	return tv, err
}

// decodeTagged parses tagged value s, appending its row's fields to slab
// so that a key group's rows can share one backing array. It returns the
// value, whose Row is the appended tail, and the extended slab.
func decodeTagged(slab exec.Row, s string) (TaggedValue, exec.Row, error) {
	sep := strings.IndexByte(s, '|')
	if sep < 0 {
		return TaggedValue{}, slab, fmt.Errorf("tagged value %q has no separator", s)
	}
	head, excl, _ := strings.Cut(s[:sep], "!")
	input, err := strconv.Atoi(head)
	if err != nil {
		return TaggedValue{}, slab, fmt.Errorf("tagged value %q: bad input index %q", s, head)
	}
	var excluded []int
	for part, rest, more := "", excl, excl != ""; more; {
		part, rest, more = strings.Cut(rest, ",")
		id, err := strconv.Atoi(part)
		if err != nil {
			return TaggedValue{}, slab, fmt.Errorf("tagged value %q: bad stream id %q", s, part)
		}
		excluded = append(excluded, id)
	}
	start := len(slab)
	slab, err = exec.AppendRowUntyped(slab, s[sep+1:])
	if err != nil {
		return TaggedValue{}, slab, fmt.Errorf("tagged value %q: %w", s, err)
	}
	return TaggedValue{Input: input, Excluded: excluded, Row: slab[start:len(slab):len(slab)]}, slab, nil
}

// Sees reports whether stream id may see the value. The caller must already
// have established that the stream belongs to the value's source input.
func (t TaggedValue) Sees(id int) bool {
	for _, x := range t.Excluded {
		if x == id {
			return false
		}
	}
	return true
}

// outputTagSep separates an output-source tag from the row payload in the
// output of a common job that writes results of several merged jobs
// ("an additional tag is used for each output key/value pair to distinguish
// its source", §VI.B).
const outputTagSep = "\x01"

// TagLine prefixes a row line with a source tag; with an empty tag the line
// is returned unchanged.
func TagLine(tag, line string) string {
	if tag == "" {
		return line
	}
	return tag + outputTagSep + line
}

// SplitTag removes the source tag of a line written by TagLine, returning
// the tag ("" if none) and the payload.
func SplitTag(line string) (tag, payload string) {
	if i := strings.Index(line, outputTagSep); i >= 0 {
		return line[:i], line[i+len(outputTagSep):]
	}
	return "", line
}
