package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// readEdgeListScanner is the line parser ReadEdgeList used before the
// byte parser: a bufio.Scanner, strings.Fields and strconv per line. It
// is kept as the oracle of the fuzz target, with one change: a weight
// that is not finite is an error here, where the original passed it to
// Builder.AddWeightedEdge, which panics on it.
func readEdgeListScanner(r io.Reader) (*Graph, error) {
	b := NewBuilder(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineno := 0
	declaredN := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			for _, field := range strings.Fields(line) {
				if v, ok := strings.CutPrefix(field, "vertices="); ok {
					if n, err := strconv.Atoi(v); err == nil && n > declaredN {
						declaredN = n
					}
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 or 3 fields, got %q", lineno, line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %v", lineno, fields[0], err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %v", lineno, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id", lineno)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: %v", lineno, fields[2], err)
			}
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: line %d: bad weight %v", lineno, w)
			}
		}
		b.AddWeightedEdge(u, v, w)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %v", err)
	}
	if declaredN > 0 {
		b.EnsureVertices(declaredN)
	}
	return b.Build(), nil
}

// edgeRec is one edge as ParseEdgeList reports it.
type edgeRec struct {
	u, v int
	w    float64
}

// parseAll parses in whole, recording every edge.
func parseAll(in []byte) ([]edgeRec, EdgeListInfo, error) {
	var edges []edgeRec
	info, err := ParseEdgeList(bytes.NewReader(in), func(u, v int, w float64) {
		edges = append(edges, edgeRec{u, v, w})
	})
	return edges, info, err
}

// parseParts parses in as k line-aligned parts (LineRange) and joins
// them the way rank-local ingest does: edges in part order, the vertex
// count over all parts, and the first error renumbered by the lines of
// the parts before it. Edges after the first error are dropped.
func parseParts(in []byte, k int) ([]edgeRec, int, error) {
	ra := bytes.NewReader(in)
	var edges []edgeRec
	n, lines := 0, 0
	total := int64(0)
	for r := 0; r < k; r++ {
		off, size, err := LineRange(ra, int64(len(in)), r, k)
		if err != nil {
			return nil, 0, err
		}
		total += size
		part, info, err := parseAll(in[off : off+size])
		edges = append(edges, part...)
		n = max(n, info.NumVertices())
		if err != nil {
			var le *LineError
			if !errors.As(err, &le) {
				return nil, 0, err
			}
			le.Line += lines
			return edges, n, le
		}
		lines += info.Lines
	}
	if total != int64(len(in)) {
		return nil, 0, fmt.Errorf("parts cover %d of %d bytes", total, len(in))
	}
	return edges, n, nil
}

// fuzzSeeds are the seed corpus beside testdata/fuzz/FuzzReadEdgeList.
var fuzzSeeds = []string{
	"0 1\n1 2\n2 0\n",
	"# vertices=7 edges=2\n0 1 2.5\n1 1 3\n",
	"% comment\r\n0 1\r\n\r\n1 2 0.5\r\n0 1 4\r\n",
	"0\t1  \t 2\n\n   \n3 4 5 extra fields\n",
	"0 1\n1 99999999999\n",
	"0 1 NaN\n",
	"0 1 1e308\n1 2 1e308\n",
	"0 1 -1\n",
	"# vertices=2147483647\n",
	"0 1\n2 x\n",
	"5 6",
	"1 2 0x1p-2\n3 4 1e-320\n",
}

func FuzzReadEdgeList(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s), uint8(3))
	}
	f.Fuzz(func(t *testing.T, in []byte, k uint8) {
		edges, info, err := parseAll(in)

		// Any split into line-aligned parts yields the same edge
		// sequence, vertex count and first error line as the whole.
		parts := int(k)%7 + 1
		pEdges, pN, pErr := parseParts(in, parts)
		if (err == nil) != (pErr == nil) {
			t.Fatalf("%d parts: error %v, whole input %v", parts, pErr, err)
		}
		if err != nil {
			var le, ple *LineError
			if !errors.As(err, &le) || !errors.As(pErr, &ple) || le.Line != ple.Line {
				t.Fatalf("%d parts: error %v, whole input %v", parts, pErr, err)
			}
		} else if pN != info.NumVertices() {
			t.Fatalf("%d parts: %d vertices, whole input %d", parts, pN, info.NumVertices())
		}
		if !reflect.DeepEqual(pEdges, edges) && (len(pEdges) > 0 || len(edges) > 0) {
			t.Fatalf("%d parts: edges %v, whole input %v", parts, pEdges, edges)
		}

		// On input both parsers accept, they build the same graph.
		// Graphs are built only at sizes a test can allocate.
		if err != nil || info.NumVertices() > 1<<16 {
			return
		}
		g, err := ReadEdgeList(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("ReadEdgeList: %v after a clean parse", err)
		}
		if want, err := readEdgeListScanner(bytes.NewReader(in)); err == nil && !graphsEqual(g, want) {
			t.Fatalf("ReadEdgeList and the scanner parser disagree on %q", in)
		}
	})
}

// TestReadEdgeListHostile pins that hostile edge lists return a
// line-numbered error, never a crash or an allocation sized by a
// forged id.
func TestReadEdgeListHostile(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		line     int
	}{
		{"id too large", "0 1\n1 99999999999\n", 2},
		{"id 2^31-1", "# x\n0 2147483647\n", 2},
		{"header too large", "0 1\n# vertices=2147483647\n", 2},
		{"header overflows int", "# vertices=99999999999999999999999\n", 1},
		{"NaN weight", "0 1 NaN\n", 1},
		{"infinite weight", "0 1 2\n0 1 +Inf\n", 2},
		{"weight overflows float", "0 1 1e400\n", 1},
		{"weights whose total overflows", "0 1 1e308\n1 2 1e308\n", 1},
		{"subnormal weight", "0 1\r\n0 2 1e-320\r\n", 2},
		{"line too long", "0 1\n" + strings.Repeat(" ", maxLine+1) + "\n", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := ReadEdgeList(strings.NewReader(tc.in))
			var le *LineError
			if !errors.As(err, &le) {
				t.Fatalf("ReadEdgeList = (%v, %v), want a line error", g, err)
			}
			if le.Line != tc.line {
				t.Fatalf("error %q at line %d, want line %d", err, le.Line, tc.line)
			}
			if !strings.HasPrefix(err.Error(), fmt.Sprintf("graph: line %d: ", tc.line)) {
				t.Fatalf("error %q does not name its line", err)
			}
		})
	}
	// The largest legal id and header still parse (without building).
	info, err := ParseEdgeList(strings.NewReader("# vertices=2147483646\n0 2147483646 1e100\n1 2 1e-100\n"), func(int, int, float64) {})
	if err != nil || info.NumVertices() != MaxID+1 {
		t.Fatalf("ParseEdgeList at the limits = (%+v, %v)", info, err)
	}
}

// TestLineRangeTiles pins LineRange: the parts of any split tile the
// input, start at line starts, and exceed ⌈size/p⌉ by at most one line.
func TestLineRangeTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var b bytes.Buffer
		longest := 0
		for i := rng.Intn(40); i > 0; i-- {
			line := strings.Repeat("x", rng.Intn(30)) + "\n"
			longest = max(longest, len(line))
			b.WriteString(line)
		}
		if rng.Intn(2) == 0 {
			b.WriteString("tail")
			longest = max(longest, 4)
		}
		in := b.Bytes()
		size := int64(len(in))
		for p := 1; p <= 6; p++ {
			next := int64(0)
			for r := 0; r < p; r++ {
				off, n, err := LineRange(bytes.NewReader(in), size, r, p)
				if err != nil {
					t.Fatal(err)
				}
				if off != next {
					t.Fatalf("p=%d part %d starts at %d, want %d", p, r, off, next)
				}
				if off > 0 && off < size && in[off-1] != '\n' {
					t.Fatalf("p=%d part %d starts mid-line at %d", p, r, off)
				}
				if limit := (size+int64(p)-1)/int64(p) + int64(longest); n > limit {
					t.Fatalf("p=%d part %d is %d bytes, limit %d", p, r, n, limit)
				}
				next = off + n
			}
			if next != size {
				t.Fatalf("p=%d parts end at %d of %d", p, next, size)
			}
		}
	}
}

func rowsEqual(a, b *Rows) bool {
	return a.N == b.N && a.P == b.P && a.Rank == b.Rank && slices.Equal(a.Off, b.Off) &&
		slices.Equal(a.Targets, b.Targets) && slices.Equal(a.Weights, b.Weights)
}

// TestRowsMatchBuild pins graph.NewRows against Build: rows filled with
// each vertex's arcs in file order, as rank-local ingest fills them,
// sort and merge into exactly the graph's rows, parallel weights summed
// in the same float order; and the per-vertex sums give the graph's
// edge count and total weight bit for bit.
func TestRowsMatchBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(60)
		b := NewBuilder(n)
		var edges []edgeRec
		for i := rng.Intn(400); i > 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if rng.Intn(8) == 0 {
				v = u
			}
			w := 0.1 + rng.Float64()
			b.AddWeightedEdge(u, v, w)
			edges = append(edges, edgeRec{u, v, w})
		}
		g := b.Build()
		for _, p := range []int{1, 2, 3, 5} {
			m, total := 0, 0.0
			for rank := 0; rank < p; rank++ {
				got := ingestRows(n, rank, p, edges)
				if want := g.Rows(rank, p); !rowsEqual(got, want) {
					t.Fatalf("trial %d p=%d rank %d: NewRows = %+v, the graph's rows %+v", trial, p, rank, got, want)
				}
				for i := 0; i < got.NumRows(); i++ {
					m += got.Sums(i).Upper
				}
			}
			// The total weight sums the per-vertex partials in id order.
			for u := 0; u < n; u++ {
				total += g.Rows(u%p, p).Sums(u / p).UpperWeight
			}
			if m != g.NumEdges() || math.Float64bits(total) != math.Float64bits(g.TotalWeight()) {
				t.Fatalf("trial %d p=%d: sums give %d edges, weight %v; graph has %d, %v",
					trial, p, m, total, g.NumEdges(), g.TotalWeight())
			}
		}
	}
}
