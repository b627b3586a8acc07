package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"fuzzyjoin/internal/dfs"
)

// Format selects how records are encoded in DFS files.
type Format int

const (
	// FormatUnset resolves to the per-field default (Text for inputs,
	// Pairs for outputs).
	FormatUnset Format = iota
	// Text stores one record per line. On input the mapper receives an
	// empty key and value = the line without the newline. On output
	// "key\tvalue\n" is written, or just "value\n" when the key is empty.
	Text
	// Pairs stores length-prefixed binary (key, value) records: uvarint
	// key length, key bytes, uvarint value length, value bytes. Used for
	// all intermediate stage outputs.
	Pairs
)

// appendPair encodes one Pairs-format record.
func appendPair(dst, key, value []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	return append(dst, value...)
}

// decodeOnePair parses the first Pairs-format record of block, returning
// the key, value, and the undecoded remainder. The returned slices alias
// block. Length varints must be minimal (the writers always emit minimal
// encodings; an overlong one means corruption and would break the
// decode-then-re-encode identity).
func decodeOnePair(block []byte) (key, value, rest []byte, err error) {
	kl, n := binary.Uvarint(block)
	if n <= 0 || (n > 1 && block[n-1] == 0) || uint64(len(block)-n) < kl {
		return nil, nil, nil, fmt.Errorf("mapreduce: corrupt Pairs block (key length)")
	}
	block = block[n:]
	key = block[:kl]
	block = block[kl:]
	vl, n := binary.Uvarint(block)
	if n <= 0 || (n > 1 && block[n-1] == 0) || uint64(len(block)-n) < vl {
		return nil, nil, nil, fmt.Errorf("mapreduce: corrupt Pairs block (value length)")
	}
	block = block[n:]
	value = block[:vl]
	return key, value, block[vl:], nil
}

// decodePairs parses all Pairs-format records in block.
func decodePairs(block []byte, fn func(key, value []byte) error) error {
	for len(block) > 0 {
		key, value, rest, err := decodeOnePair(block)
		if err != nil {
			return err
		}
		if err := fn(key, value); err != nil {
			return err
		}
		block = rest
	}
	return nil
}

// decodeText parses line records in block, passing each with an empty key.
func decodeText(block []byte, fn func(key, value []byte) error) error {
	for len(block) > 0 {
		i := bytes.IndexByte(block, '\n')
		var line []byte
		if i < 0 {
			line = block
			block = nil
		} else {
			line = block[:i]
			block = block[i+1:]
		}
		if err := fn(nil, line); err != nil {
			return err
		}
	}
	return nil
}

// readSplit feeds the records of one split to fn.
func readSplit(fs dfs.Storage, format Format, split dfs.Split, fn func(key, value []byte) error) error {
	block, err := fs.Block(split.File, split.Block)
	if err != nil {
		return err
	}
	switch format {
	case Text:
		return decodeText(block, fn)
	case Pairs:
		return decodePairs(block, fn)
	default:
		return fmt.Errorf("mapreduce: unknown format %d", format)
	}
}

// fileWriter writes records of the given format to a DFS file.
type fileWriter struct {
	w      dfs.RecordWriter
	format Format
	buf    []byte
	recs   int64
	bytes  int64
}

func newFileWriter(fs dfs.Storage, name string, format Format) (*fileWriter, error) {
	w, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &fileWriter{w: w, format: format}, nil
}

func (fw *fileWriter) write(key, value []byte) error {
	fw.buf = fw.buf[:0]
	switch fw.format {
	case Text:
		if len(key) > 0 {
			fw.buf = append(fw.buf, key...)
			fw.buf = append(fw.buf, '\t')
		}
		fw.buf = append(fw.buf, value...)
		fw.buf = append(fw.buf, '\n')
	case Pairs:
		fw.buf = appendPair(fw.buf, key, value)
	default:
		return fmt.Errorf("mapreduce: unknown format %d", fw.format)
	}
	if err := fw.w.Append(fw.buf); err != nil {
		return err
	}
	fw.recs++
	fw.bytes += int64(len(fw.buf))
	return nil
}

func (fw *fileWriter) close() error { return fw.w.Close() }

// WriteTextFile creates a Text-format file from whole lines (a test and
// tooling convenience).
func WriteTextFile(fs dfs.Storage, name string, lines []string) error {
	w, err := fs.Create(name)
	if err != nil {
		return err
	}
	for _, l := range lines {
		if err := w.Append(append([]byte(l), '\n')); err != nil {
			return err
		}
	}
	return w.Close()
}

// WritePairsFile creates a Pairs-format file from the given pairs.
func WritePairsFile(fs dfs.Storage, name string, pairs []Pair) error {
	w, err := fs.Create(name)
	if err != nil {
		return err
	}
	var buf []byte
	for _, p := range pairs {
		buf = appendPair(buf[:0], p.Key, p.Value)
		if err := w.Append(buf); err != nil {
			return err
		}
	}
	return w.Close()
}

// formatFor resolves the input format for a file: an exact
// InputFormatsByPrefix entry wins, then the longest matching "/"-suffixed
// prefix entry, then the job default.
func (j *Job) formatFor(file string) Format {
	if f, ok := j.InputFormatsByPrefix[file]; ok {
		return f
	}
	best, bestLen := j.InputFormat, -1
	for p, f := range j.InputFormatsByPrefix {
		if len(p) > 0 && p[len(p)-1] == '/' && len(p) > bestLen && strings.HasPrefix(file, p) {
			best, bestLen = f, len(p)
		}
	}
	return best
}

// expandInputs resolves input names: a name ending in "/" expands to all
// files with that prefix.
func expandInputs(fs dfs.Storage, inputs []string) ([]string, error) {
	var out []string
	for _, in := range inputs {
		if len(in) > 0 && in[len(in)-1] == '/' {
			// Segment-aware List: a "/"-suffixed prefix matches exactly
			// the files underneath it, so "out/" can never pick up a
			// sibling directory like "out2/".
			files := fs.List(in)
			if len(files) == 0 {
				return nil, fmt.Errorf("mapreduce: input prefix %q matches no files", in)
			}
			out = append(out, files...)
			continue
		}
		if !fs.Exists(in) {
			return nil, fmt.Errorf("mapreduce: input %q does not exist", in)
		}
		out = append(out, in)
	}
	return out, nil
}

// Walk calls fn for every record of the files under prefix (List's
// segment rule: "out/" walks a job's part files, in task order, and a
// bare name walks that file), block by block in place: key and value
// alias the block, so fn copies what it keeps. An error from fn or from a
// block stops the walk and comes back wrapped with the file's name. Walk
// returns the block bytes it read.
func Walk(fs dfs.Storage, prefix string, format Format, fn func(key, value []byte) error) (int64, error) {
	splits, err := walkSplits(fs, prefix)
	if err != nil {
		return 0, err
	}
	var read int64
	for _, s := range splits {
		if err := readSplit(fs, format, s, fn); err != nil {
			return read, fmt.Errorf("mapreduce: read %s: %w", s.File, err)
		}
		read += int64(s.Bytes)
	}
	return read, nil
}

// Records counts the records written to the files under prefix from the
// blocks' counts, without reading a block: what Walk hands over when each
// was written as one line or one pair, as job output is. It is 0 when a
// file's splits cannot be read; Walk reports that error.
func Records(fs dfs.Storage, prefix string) (n int) {
	splits, _ := walkSplits(fs, prefix)
	for _, s := range splits {
		n += s.Records
	}
	return n
}

// walkSplits returns the splits of the files under prefix, in List order.
func walkSplits(fs dfs.Storage, prefix string) ([]dfs.Split, error) {
	var out []dfs.Split
	for _, name := range fs.List(prefix) {
		splits, err := fs.Splits(name)
		if err != nil {
			return nil, err
		}
		out = append(out, splits...)
	}
	return out, nil
}
