package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// MaxID is the largest vertex id, and the largest "vertices=" value, an
// edge list may carry. Module ids are stored as int32 downstream, so a
// larger id would not fit; it is rejected at parse time instead of
// failing an allocation later.
const MaxID = math.MaxInt32 - 1

// MinWeight and MaxWeight bound an edge-list weight. Within them no sum
// of weights of any file can overflow, and 1/(2W) stays finite.
const (
	MinWeight = 1e-100
	MaxWeight = 1e100
)

// maxLine bounds one edge-list line, like the bufio.Scanner limit the
// parser replaced; the read buffer starts small and grows up to it.
const (
	readChunk = 64 << 10
	maxLine   = 1 << 20
)

// EdgeListInfo summarizes one parsed edge list, or one line-aligned
// byte range of one.
type EdgeListInfo struct {
	// Lines counts the lines read; a last line without a newline counts.
	Lines int
	// MaxID is the largest vertex id of any edge, -1 without edges.
	MaxID int
	// Declared is the largest "vertices=N" header value, 0 without one.
	Declared int
	// Bytes counts the bytes consumed.
	Bytes int64
}

// NumVertices is the vertex count the edge list declares: one more than
// its largest id, or its header value when that is larger.
func (in EdgeListInfo) NumVertices() int { return max(in.MaxID+1, in.Declared) }

// LineError is a parse error at one line of an edge list.
type LineError struct {
	Line int
	Msg  string
}

func (e *LineError) Error() string { return fmt.Sprintf("graph: line %d: %s", e.Line, e.Msg) }

// ParseEdgeList streams a whitespace-separated edge list from r and
// calls fn once per edge line, in file order. The format:
//
//   - one edge per line as "u v" or "u v w"; fields after the third are
//     ignored;
//   - fields are separated by ASCII whitespace, and a line may end in
//     CRLF;
//   - lines whose first non-blank byte is '#' or '%' are comments, and
//     any field "vertices=N" on a comment line declares N vertices;
//   - ids are decimal integers in [0, MaxID]; weights are finite floats
//     in [MinWeight, MaxWeight], 1 when absent.
//
// Parse errors are *LineError values carrying the line number; the
// returned info then covers the lines before the bad one. Parallel
// edges are not merged here: fn sees every line.
func ParseEdgeList(r io.Reader, fn func(u, v int, w float64)) (EdgeListInfo, error) {
	info := EdgeListInfo{MaxID: -1}
	buf := make([]byte, readChunk)
	start, end := 0, 0 // unconsumed input is buf[start:end]
	eof := false
	for {
		if i := bytes.IndexByte(buf[start:end], '\n'); i >= 0 {
			if err := parseLine(&info, buf[start:start+i], fn); err != nil {
				return info, err
			}
			info.Bytes += int64(i + 1)
			start += i + 1
			continue
		}
		if eof {
			if start < end {
				if err := parseLine(&info, buf[start:end], fn); err != nil {
					return info, err
				}
				info.Bytes += int64(end - start)
			}
			return info, nil
		}
		// No complete line left: keep the partial one and read more.
		end = copy(buf, buf[start:end])
		start = 0
		if end == len(buf) {
			if len(buf) >= maxLine {
				return info, &LineError{Line: info.Lines + 1, Msg: fmt.Sprintf("line longer than %d bytes", maxLine)}
			}
			buf = append(buf, make([]byte, len(buf))...)
		}
		n, err := r.Read(buf[end:])
		end += n
		if err == io.EOF {
			eof = true
		} else if err != nil {
			return info, fmt.Errorf("graph: read: %w", err)
		}
	}
}

// parseLine parses one line (without its newline) into info and fn.
func parseLine(info *EdgeListInfo, b []byte, fn func(u, v int, w float64)) error {
	info.Lines++
	i := skipSpace(b, 0)
	if i == len(b) {
		return nil
	}
	if b[i] == '#' || b[i] == '%' {
		return parseComment(info, b)
	}
	fail := func(format string, args ...any) error {
		return &LineError{Line: info.Lines, Msg: fmt.Sprintf(format, args...)}
	}
	u, i, ok := parseID(b, i)
	if !ok {
		return fail("bad source %q", token(b, i))
	}
	i = skipSpace(b, i)
	if i == len(b) {
		return fail("want 2 or 3 fields, got %q", bytes.TrimSpace(b))
	}
	v, i, ok := parseID(b, i)
	if !ok {
		return fail("bad target %q", token(b, i))
	}
	if u > MaxID || v > MaxID {
		return fail("vertex id %d exceeds %d", max(u, v), MaxID)
	}
	w := 1.0
	if i = skipSpace(b, i); i < len(b) {
		tok := token(b, i)
		var err error
		if w, err = parseWeight(tok); err != nil {
			return fail("bad weight %q: %v", tok, err)
		}
		switch {
		case math.IsNaN(w) || math.IsInf(w, 0):
			return fail("weight %q is not finite", tok)
		case w <= 0:
			return fail("non-positive weight %v", w)
		case w < MinWeight || w > MaxWeight:
			return fail("weight %v outside [%g, %g]", w, MinWeight, MaxWeight)
		}
	}
	info.MaxID = max(info.MaxID, u, v)
	fn(u, v, w)
	return nil
}

// parseComment scans a comment line for "vertices=N" fields. A value
// that is not an integer is ignored; one above MaxID is an error.
func parseComment(info *EdgeListInfo, b []byte) error {
	if !bytes.Contains(b, []byte("vertices=")) {
		return nil
	}
	for _, field := range strings.Fields(string(b)) {
		v, ok := strings.CutPrefix(field, "vertices=")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(v)
		if errors.Is(err, strconv.ErrRange) || (err == nil && n > MaxID) {
			return &LineError{Line: info.Lines, Msg: fmt.Sprintf("vertices=%s exceeds %d", v, MaxID)}
		}
		if err == nil && n > info.Declared {
			info.Declared = n
		}
	}
	return nil
}

// parseID reads a decimal id at b[i:], which must end at whitespace or
// the end of the line. Values above MaxID saturate just past it.
func parseID(b []byte, i int) (x, next int, ok bool) {
	j := i
	for ; j < len(b) && '0' <= b[j] && b[j] <= '9'; j++ {
		if x <= MaxID {
			x = x*10 + int(b[j]-'0')
		}
	}
	if j == i || (j < len(b) && !isSpace(b[j])) {
		return 0, i, false
	}
	return x, j, true
}

// parseWeight parses a weight field. Short all-digit fields, the
// common case, take an exact integer path that strconv.ParseFloat
// would round identically.
func parseWeight(tok []byte) (float64, error) {
	if len(tok) <= 15 {
		x := 0
		for _, c := range tok {
			if c < '0' || c > '9' {
				return strconv.ParseFloat(string(tok), 64)
			}
			x = x*10 + int(c-'0')
		}
		return float64(x), nil
	}
	return strconv.ParseFloat(string(tok), 64)
}

// token returns the field starting at b[i].
func token(b []byte, i int) []byte {
	j := i
	for j < len(b) && !isSpace(b[j]) {
		j++
	}
	return b[i:j]
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// isSpace reports ASCII whitespace other than the line separator.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// LineRange returns part r of p of an edge list of size bytes read
// through ra: the byte range [off, off+n) of the lines that start in
// [r·size/p, (r+1)·size/p). The p parts tile the input, every line
// lies in exactly one, and a part is at most one line longer than
// ⌈size/p⌉.
func LineRange(ra io.ReaderAt, size int64, r, p int) (off, n int64, err error) {
	lo, err := lineStart(ra, size, int64(r)*size/int64(p))
	if err != nil {
		return 0, 0, err
	}
	hi, err := lineStart(ra, size, int64(r+1)*size/int64(p))
	if err != nil {
		return 0, 0, err
	}
	return lo, hi - lo, nil
}

// lineStart returns the first line start at or after x: x itself when
// the byte before it is a newline, else just past the next newline, or
// size when there is none.
func lineStart(ra io.ReaderAt, size, x int64) (int64, error) {
	if x <= 0 || x >= size {
		return min(max(x, 0), size), nil
	}
	var buf [4096]byte
	for pos := x - 1; pos < size; {
		n, err := ra.ReadAt(buf[:min(int64(len(buf)), size-pos)], pos)
		if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
			return pos + int64(i) + 1, nil
		}
		if err != nil && err != io.EOF {
			return 0, fmt.Errorf("graph: read: %w", err)
		}
		if n == 0 {
			break
		}
		pos += int64(n)
	}
	return size, nil
}
