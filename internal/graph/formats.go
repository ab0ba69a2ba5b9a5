package graph

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
)

// Format identifies a supported graph input format.
type Format int

const (
	// FormatAuto sniffs the format from content and file extension.
	FormatAuto Format = iota
	// FormatEdgeList is the SNAP/plain "u v" edge-list dialect ('#'/'%'
	// comments, optional ignored third column), parsed by the parallel
	// ParseEdgeList: ids are plain digit runs (no '+' sign) separated by
	// ASCII whitespace. The sequential LoadEdgeList remains available for
	// the lenient strconv-based dialect.
	FormatEdgeList
	// FormatDIMACS is the DIMACS clique/coloring format ("p edge n m").
	FormatDIMACS
	// FormatMatrixMarket is the MatrixMarket coordinate format
	// ("%%MatrixMarket matrix coordinate ...", 1-based indices).
	FormatMatrixMarket
	// FormatMETIS is the METIS/Chaco adjacency format ("n m [fmt]" header,
	// one 1-based neighbor line per vertex).
	FormatMETIS
	// FormatBinary is the .hbg binary CSR snapshot.
	FormatBinary
)

// String returns the canonical flag spelling of f.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatEdgeList:
		return "edgelist"
	case FormatDIMACS:
		return "dimacs"
	case FormatMatrixMarket:
		return "mtx"
	case FormatMETIS:
		return "metis"
	case FormatBinary:
		return "hbg"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// ParseFormat maps a flag value to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "auto", "":
		return FormatAuto, nil
	case "edgelist", "el", "snap", "txt":
		return FormatEdgeList, nil
	case "dimacs", "col", "clq":
		return FormatDIMACS, nil
	case "mtx", "matrixmarket", "mm":
		return FormatMatrixMarket, nil
	case "metis", "chaco":
		return FormatMETIS, nil
	case "hbg", "binary", "bin":
		return FormatBinary, nil
	}
	return FormatAuto, fmt.Errorf("graph: unknown format %q (auto|edgelist|dimacs|mtx|metis|hbg)", s)
}

var gzipMagic = []byte{0x1f, 0x8b}

// mtxBanner is the mandatory MatrixMarket header prefix (case-insensitive).
const mtxBanner = "%%matrixmarket"

// DetectFormat sniffs the format of (already decompressed) data, using path
// as a tie-breaker for formats without a content signature. Unambiguous
// markers win: the .hbg magic, the MatrixMarket banner, DIMACS c/p/e
// records. METIS adjacency is indistinguishable from a plain edge list by
// content, so it is only detected via the .metis/.graph extension; anything
// else falls back to FormatEdgeList.
func DetectFormat(data []byte, path string) Format {
	if bytes.HasPrefix(data, []byte(hbgMagic)) {
		return FormatBinary
	}
	if len(data) >= len(mtxBanner) && strings.EqualFold(string(data[:len(mtxBanner)]), mtxBanner) {
		return FormatMatrixMarket
	}
	switch ext(path) {
	case ".hbg":
		return FormatBinary
	case ".mtx", ".mm":
		return FormatMatrixMarket
	case ".metis", ".graph", ".chaco":
		return FormatMETIS
	case ".dimacs", ".col", ".clq":
		return FormatDIMACS
	}
	// First record decides between DIMACS and an edge list: '#'/'%' comment
	// lines are skipped, a 'c'/'p'/'e' record (letter + space) is DIMACS.
	rest := data
	for len(rest) > 0 {
		var line []byte
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
			line, rest = rest[:nl], rest[nl+1:]
		} else {
			line, rest = rest, nil
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			continue
		}
		if len(line) > 1 && (line[0] == 'c' || line[0] == 'p' || line[0] == 'e') && isSpace(line[1]) {
			return FormatDIMACS
		}
		break
	}
	return FormatEdgeList
}

// ext returns the lower-cased path extension with any trailing ".gz"
// stripped, so compressed files detect as their inner format.
func ext(path string) string {
	e := strings.ToLower(filepath.Ext(path))
	if e == ".gz" {
		e = strings.ToLower(filepath.Ext(path[:len(path)-len(e)]))
	}
	return e
}

// ParseMatrixMarket parses the MatrixMarket coordinate format using up to
// workers goroutines for the entry body (0 = all cores). The matrix must be
// square; entries are treated as undirected edges regardless of the
// declared symmetry, values (real/integer/complex) are ignored, and
// diagonal entries are dropped. The declared dimension fixes the vertex
// count even when trailing vertices are isolated.
func ParseMatrixMarket(data []byte, workers int) (*Graph, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		nl = len(data)
	}
	banner := bytes.Fields(data[:nl])
	if len(banner) < 3 || !strings.EqualFold(string(banner[0]), "%%MatrixMarket") {
		return nil, fmt.Errorf("graph: missing %%%%MatrixMarket banner")
	}
	if !strings.EqualFold(string(banner[1]), "matrix") || !strings.EqualFold(string(banner[2]), "coordinate") {
		return nil, fmt.Errorf("graph: unsupported MatrixMarket header %q (only \"matrix coordinate\")", banner[1:])
	}
	rest := data[min(nl+1, len(data)):]
	lineNo := 1
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		var line []byte
		if nl < 0 {
			line, nl = rest, len(rest)-1
		} else {
			line = rest[:nl]
		}
		lineNo++
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '%' {
			rest = rest[nl+1:]
			continue
		}
		// The size line: "rows cols nnz".
		f := bytes.Fields(line)
		if len(f) < 3 {
			return nil, fmt.Errorf("graph: line %d: malformed MatrixMarket size line %q", lineNo, line)
		}
		rows, _, okR := scanID(f[0], 0)
		cols, _, okC := scanID(f[1], 0)
		nnz, _, okZ := scanID(f[2], 0)
		if !okR || !okC || !okZ {
			return nil, fmt.Errorf("graph: line %d: bad MatrixMarket size line %q", lineNo, line)
		}
		if rows != cols {
			return nil, fmt.Errorf("graph: %dx%d MatrixMarket matrix is not square (not an adjacency matrix)", rows, cols)
		}
		g, entries, err := parseEdgeBytes(rest[nl+1:], workers, 1, int(rows))
		if err != nil {
			return nil, fmt.Errorf("%v (MatrixMarket entries start at line %d)", err, lineNo+1)
		}
		if entries != int64(nnz) {
			// A count mismatch almost always means a truncated download or a
			// corrupt file; silently returning the partial graph would give
			// wrong enumeration results with no warning.
			return nil, fmt.Errorf("graph: MatrixMarket size line declares %d entries, body has %d", nnz, entries)
		}
		if nv := g.NumVertices(); nv > int(rows) {
			return nil, fmt.Errorf("graph: MatrixMarket entry index %d exceeds declared dimension %d", nv, rows)
		}
		return g, nil
	}
	return nil, fmt.Errorf("graph: MatrixMarket input has no size line")
}

// ParseMETIS parses the METIS/Chaco adjacency format: a "n m [fmt] [ncon]"
// header, then one line per vertex listing its 1-based neighbors. The fmt
// code's digits (vertex sizes / vertex weights / edge weights) are honored
// and all weights are skipped; '%' lines are comments and a blank line is
// an isolated vertex.
func ParseMETIS(data []byte) (*Graph, error) {
	var (
		n, m, fmtCode, ncon int
		haveHeader          bool
		vertex              int
		keys                []uint64
		lineNo              int
	)
	for i := 0; i < len(data); {
		var line []byte
		if nl := bytes.IndexByte(data[i:], '\n'); nl >= 0 {
			line = data[i : i+nl]
			i += nl + 1
		} else {
			line = data[i:]
			i = len(data)
		}
		lineNo++
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 && trimmed[0] == '%' {
			continue
		}
		if !haveHeader {
			if len(trimmed) == 0 {
				continue
			}
			f := bytes.Fields(trimmed)
			if len(f) < 2 || len(f) > 4 {
				return nil, fmt.Errorf("graph: line %d: malformed METIS header %q (want \"n m [fmt] [ncon]\")", lineNo, clip(trimmed))
			}
			vals := make([]int, len(f))
			for k, fld := range f {
				v, next, ok := scanID(fld, 0)
				if !ok || next != len(fld) {
					return nil, fmt.Errorf("graph: line %d: bad METIS header value %q", lineNo, fld)
				}
				vals[k] = int(v)
			}
			n, m = vals[0], vals[1]
			if len(vals) > 2 {
				fmtCode = vals[2]
			}
			if len(vals) > 3 {
				ncon = vals[3]
			}
			if fmtCode > 111 || fmtCode%10 > 1 || (fmtCode/10)%10 > 1 {
				return nil, fmt.Errorf("graph: line %d: bad METIS fmt code %03d", lineNo, fmtCode)
			}
			if ncon == 0 && (fmtCode/10)%10 == 1 {
				ncon = 1
			}
			haveHeader = true
			continue
		}
		if vertex >= n {
			if len(trimmed) == 0 {
				continue
			}
			return nil, fmt.Errorf("graph: line %d: adjacency line beyond the %d declared vertices", lineNo, n)
		}
		v := int32(vertex)
		vertex++
		// Token layout per line: [size] [ncon weights] nb [w] nb [w] ...
		skip := 0
		if fmtCode/100 == 1 {
			skip++
		}
		if (fmtCode/10)%10 == 1 {
			skip += ncon
		}
		edgeWeights := fmtCode%10 == 1
		tok := 0
		for j := 0; j < len(trimmed); {
			for j < len(trimmed) && isSpace(trimmed[j]) {
				j++
			}
			if j >= len(trimmed) {
				break
			}
			val, next, ok := scanID(trimmed, j)
			if !ok || (next < len(trimmed) && !isSpace(trimmed[next])) {
				return nil, fmt.Errorf("graph: line %d: bad METIS value in %q", lineNo, clip(trimmed))
			}
			j = next
			defTok := tok
			tok++
			if defTok < skip {
				continue // vertex size / vertex weights
			}
			if edgeWeights && (defTok-skip)%2 == 1 {
				continue // edge weight
			}
			if val < 1 || int(val) > n {
				return nil, fmt.Errorf("graph: line %d: METIS neighbor %d out of range 1..%d", lineNo, val, n)
			}
			w := val - 1
			if w == v {
				continue
			}
			a, b := v, w
			if a > b {
				a, b = b, a
			}
			keys = append(keys, uint64(a)<<32|uint64(uint32(b)))
		}
	}
	if !haveHeader {
		return nil, fmt.Errorf("graph: METIS input has no header line")
	}
	if vertex < n {
		return nil, fmt.Errorf("graph: METIS input has %d adjacency lines, header declares %d vertices", vertex, n)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	if m > 0 && len(keys) != m {
		// The header's edge count is advisory in many writers; only a hard
		// mismatch against distinct undirected edges is worth flagging.
		return nil, fmt.Errorf("graph: METIS header declares %d edges, adjacency lists encode %d", m, len(keys))
	}
	return FromSortedKeys(n, keys), nil
}
