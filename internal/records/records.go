// Package records defines the record model shared by the join pipeline:
// full records (RID plus fields, stored as tab-separated lines, the format
// the paper produces from the DBLP/CITESEERX XML dumps), record
// projections (RID plus the token-rank set of the join attribute, the
// payload routed through Stage 2), RID pairs (Stage 2 output), and joined
// record pairs (Stage 3 output).
package records

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Field indices for the bibliographic datasets used in the paper's
// evaluation: one line per publication with a unique integer RID, a title,
// a list of authors, and the rest of the content.
const (
	FieldTitle = iota
	FieldAuthors
	FieldRest
	NumFields
)

// Record is one input record: a unique RID and its fields.
type Record struct {
	RID    uint64
	Fields []string
}

// ErrBadRecord reports a malformed record line.
var ErrBadRecord = errors.New("records: malformed record line")

// ParseLine parses a tab-separated record line "RID\tfield1\t...".
func ParseLine(line string) (Record, error) {
	parts := strings.Split(line, "\t")
	if len(parts) < 2 {
		return Record{}, fmt.Errorf("%w: %q", ErrBadRecord, line)
	}
	rid, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("%w: bad RID in %q: %v", ErrBadRecord, line, err)
	}
	return Record{RID: rid, Fields: parts[1:]}, nil
}

// Line renders the record in the tab-separated input format. Fields must
// not contain tabs or newlines; the dataset generator guarantees that, and
// ParseLine would not round-trip them.
func (r Record) Line() string {
	var b strings.Builder
	b.Grow(20 + r.fieldsLen())
	b.WriteString(strconv.FormatUint(r.RID, 10))
	for _, f := range r.Fields {
		b.WriteByte('\t')
		b.WriteString(f)
	}
	return b.String()
}

func (r Record) fieldsLen() int {
	n := 0
	for _, f := range r.Fields {
		n += len(f) + 1
	}
	return n
}

// JoinAttr returns the join-attribute string: the concatenation of the
// selected fields. The paper uses title + authors.
func (r Record) JoinAttr(fields ...int) string {
	if len(fields) == 1 {
		if f := fields[0]; f < len(r.Fields) {
			return r.Fields[f]
		}
		return ""
	}
	var b strings.Builder
	for i, f := range fields {
		if f >= len(r.Fields) {
			continue
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(r.Fields[f])
	}
	return b.String()
}

// RID reads a record line's RID without building the Record: ParseLine
// on the line bytes, minus the fields. It accepts and rejects exactly the
// lines ParseLine does, with the same errors.
func RID(line []byte) (uint64, error) {
	rid, _, err := splitRID(line)
	return rid, err
}

// splitRID returns the RID and the bytes after its tab.
func splitRID(line []byte) (uint64, []byte, error) {
	i := bytes.IndexByte(line, '\t')
	if i < 0 {
		return 0, nil, fmt.Errorf("%w: %q", ErrBadRecord, line)
	}
	// ParseUint clones its argument into the error it may return, so the
	// conversion stays on the stack for any RID of sane width.
	rid, err := strconv.ParseUint(string(line[:i]), 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: bad RID in %q: %v", ErrBadRecord, line, err)
	}
	return rid, line[i+1:], nil
}

// AppendJoinAttr is ParseLine followed by JoinAttr on the line bytes: it
// returns the RID and dst extended by the bytes JoinAttr(fields...)
// returns as a string. A negative field index counts as a missing field.
func AppendJoinAttr(dst, line []byte, fields []int) (uint64, []byte, error) {
	rid, rest, err := splitRID(line)
	if err != nil {
		return 0, dst, err
	}
	for i, n := range fields {
		f, ok := field(rest, n)
		if !ok {
			continue
		}
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, f...)
	}
	return rid, dst, nil
}

// field returns tab-separated field n of rest.
func field(rest []byte, n int) ([]byte, bool) {
	if n < 0 {
		return nil, false
	}
	for ; n > 0; n-- {
		i := bytes.IndexByte(rest, '\t')
		if i < 0 {
			return nil, false
		}
		rest = rest[i+1:]
	}
	if i := bytes.IndexByte(rest, '\t'); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// Projection is a record projected onto its RID and the token-rank set of
// its join attribute (sorted rarest-first). It is the unit of data routed
// to Stage 2 reducers.
type Projection struct {
	RID   uint64
	Ranks []uint32
}

// AppendBinary encodes p compactly: uvarint RID, uvarint count, then
// uvarint deltas between consecutive ranks (the ranks are sorted).
func (p Projection) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, p.RID)
	dst = binary.AppendUvarint(dst, uint64(len(p.Ranks)))
	prev := uint32(0)
	for i, r := range p.Ranks {
		if i == 0 {
			dst = binary.AppendUvarint(dst, uint64(r))
		} else {
			dst = binary.AppendUvarint(dst, uint64(r-prev))
		}
		prev = r
	}
	return dst
}

// ErrBadProjection reports a truncated or corrupt projection encoding.
var ErrBadProjection = errors.New("records: malformed projection")

// DecodeProjection decodes an encoding produced by AppendBinary.
func DecodeProjection(b []byte) (Projection, error) {
	rid, cnt, b, err := projectionHeader(b)
	if err != nil {
		return Projection{}, err
	}
	ranks := make([]uint32, cnt)
	if _, err := decodeRanks(ranks, b); err != nil {
		return Projection{}, err
	}
	return Projection{RID: rid, Ranks: ranks}, nil
}

// DecodeProjectionInto is DecodeProjection into caller storage: the ranks
// are appended to dst, and the returned Projection's Ranks are that
// appended region of the returned slice (capacity-clipped, so appending
// to them cannot reach a neighbour). A caller decoding many projections
// with one lifetime keeps them in one arena this way; when the append
// outgrows dst, projections decoded earlier keep pointing into the old
// backing array, which stays valid. used is the number of bytes of b the
// encoding took, so data framed after it starts at b[used:]. On error dst
// is returned unchanged.
func DecodeProjectionInto(dst []uint32, b []byte) (p Projection, out []uint32, used int, err error) {
	rid, cnt, rest, err := projectionHeader(b)
	if err != nil {
		return Projection{}, dst, 0, err
	}
	n := len(dst)
	grown := slices.Grow(dst, cnt)[:n+cnt]
	if rest, err = decodeRanks(grown[n:], rest); err != nil {
		return Projection{}, dst, 0, err
	}
	return Projection{RID: rid, Ranks: grown[n : n+cnt : n+cnt]}, grown, len(b) - len(rest), nil
}

// projectionHeader reads the RID and the rank count, returning the bytes
// that hold the ranks.
func projectionHeader(b []byte) (rid uint64, cnt int, rest []byte, err error) {
	rid, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, nil, ErrBadProjection
	}
	b = b[n:]
	c, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, nil, ErrBadProjection
	}
	b = b[n:]
	// Every rank needs at least one encoded byte; a count beyond the
	// remaining buffer is corrupt (and would otherwise make the caller's
	// allocation attacker-sized).
	if c > uint64(len(b)) {
		return 0, 0, nil, ErrBadProjection
	}
	return rid, int(c), b, nil
}

// decodeRanks fills ranks from the delta encoding in b and returns the
// bytes after it.
func decodeRanks(ranks []uint32, b []byte) ([]byte, error) {
	prev := uint64(0)
	for i := range ranks {
		d, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, ErrBadProjection
		}
		b = b[n:]
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		ranks[i] = uint32(prev)
	}
	return b, nil
}

// RIDPair is a Stage 2 result: two similar records' RIDs and their
// similarity. For self-joins A < B by construction; for R-S joins A is
// the R-side RID and B the S-side RID.
type RIDPair struct {
	A, B uint64
	Sim  float64
}

// AppendBinary encodes the pair: uvarint A, uvarint B, then the similarity
// scaled to a fixed-point uint32 (1e-9 resolution is far below token-set
// granularity).
func (p RIDPair) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, p.A)
	dst = binary.AppendUvarint(dst, p.B)
	return binary.AppendUvarint(dst, uint64(p.Sim*1e9+0.5))
}

// ErrBadRIDPair reports a corrupt RID-pair encoding.
var ErrBadRIDPair = errors.New("records: malformed RID pair")

// DecodeRIDPair decodes an encoding produced by RIDPair.AppendBinary.
func DecodeRIDPair(b []byte) (RIDPair, error) {
	a, n := binary.Uvarint(b)
	if n <= 0 {
		return RIDPair{}, ErrBadRIDPair
	}
	b = b[n:]
	bb, n := binary.Uvarint(b)
	if n <= 0 {
		return RIDPair{}, ErrBadRIDPair
	}
	b = b[n:]
	s, n := binary.Uvarint(b)
	if n <= 0 {
		return RIDPair{}, ErrBadRIDPair
	}
	return RIDPair{A: a, B: bb, Sim: float64(s) / 1e9}, nil
}

// String renders the pair as "A B sim" (tab-separated), the text form of
// the Stage 2 output.
func (p RIDPair) String() string {
	return strconv.FormatUint(p.A, 10) + "\t" + strconv.FormatUint(p.B, 10) + "\t" +
		strconv.FormatFloat(p.Sim, 'f', 6, 64)
}

// JoinedPair is the final Stage 3 output: the two complete records and
// their similarity.
type JoinedPair struct {
	Left, Right Record
	Sim         float64
}

// String renders the joined pair on one line; the two record lines are
// separated by a unit separator (0x1f) so tabs inside records stay
// unambiguous.
func (j JoinedPair) String() string {
	return strconv.FormatFloat(j.Sim, 'f', 6, 64) + "\x1f" + j.Left.Line() + "\x1f" + j.Right.Line()
}

// AppendJoinedPair appends the String form of the joined pair of two
// record lines to dst — JoinedPair{ParseLine(left), ParseLine(right),
// sim}.String() — without building the Records: a record line prints as
// its canonical RID followed by everything from its first tab on. It
// rejects the lines ParseLine rejects, with the same errors, left first;
// on error dst is returned unchanged.
func AppendJoinedPair(dst []byte, sim float64, left, right []byte) ([]byte, error) {
	out := strconv.AppendFloat(dst, sim, 'f', 6, 64)
	for _, line := range [2][]byte{left, right} {
		rid, rest, err := splitRID(line)
		if err != nil {
			return dst, err
		}
		out = append(out, 0x1f)
		out = strconv.AppendUint(out, rid, 10)
		out = append(out, '\t')
		out = append(out, rest...)
	}
	return out, nil
}

// SplitJoinedPair splits a line in JoinedPair's String form, in place,
// into its similarity and its two record lines, which alias line. It
// checks the framing and the similarity; ParseLine (or RID, or
// AppendJoinAttr, which reject the same lines with the same errors)
// checks each record line, left first, as ParseJoinedPair does.
func SplitJoinedPair(line []byte) (sim float64, left, right []byte, err error) {
	simText, rest, ok := bytes.Cut(line, []byte{0x1f})
	left, right, ok2 := bytes.Cut(rest, []byte{0x1f})
	if !ok || !ok2 || bytes.IndexByte(right, 0x1f) >= 0 {
		return 0, nil, nil, fmt.Errorf("records: malformed joined pair %q", line)
	}
	if sim, err = strconv.ParseFloat(string(simText), 64); err != nil {
		return 0, nil, nil, fmt.Errorf("records: bad similarity in joined pair: %v", err)
	}
	return sim, left, right, nil
}

// ParseJoinedPair parses the String form: SplitJoinedPair, then ParseLine
// on each record line.
func ParseJoinedPair(s string) (JoinedPair, error) {
	sim, l, r, err := SplitJoinedPair([]byte(s))
	if err != nil {
		return JoinedPair{}, err
	}
	left, err := ParseLine(string(l))
	if err != nil {
		return JoinedPair{}, err
	}
	right, err := ParseLine(string(r))
	if err != nil {
		return JoinedPair{}, err
	}
	return JoinedPair{Left: left, Right: right, Sim: sim}, nil
}
