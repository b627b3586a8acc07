// Package keys implements order-preserving binary encodings for composite
// MapReduce keys.
//
// The MapReduce engine sorts intermediate pairs with bytes.Compare and
// partitions and groups them on a fixed-width key prefix
// (mapreduce.Job.GroupPrefix). All encoders in this package preserve
// order under that comparison: for two sequences of components encoded
// with the same schema, the byte-wise comparison of the encodings equals
// the component-wise comparison of the values. This is what lets the
// set-similarity join stages express "partition on group, sort on (group,
// length, relation)" with plain byte keys, where Hadoop needs a custom
// partitioner and comparators.
//
// Components are fixed-width, big-endian unsigned integers: 32-bit
// (AppendUint32) and 64-bit (AppendUint64). Stage 1 keys are raw token
// bytes and need no encoding.
//
// Decoding walks the buffer in the same order the components were appended.
package keys

import (
	"encoding/binary"
	"errors"
)

// ErrShortKey is returned when a decode runs past the end of the buffer.
var ErrShortKey = errors.New("keys: short key")

// AppendUint32 appends v in fixed-width big-endian form, which compares
// identically to the numeric order of v under bytes.Compare.
func AppendUint32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendUint64 appends v in fixed-width big-endian form.
func AppendUint64(dst []byte, v uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return append(dst, buf[:]...)
}

// Uint32 decodes a fixed-width uint32 at the front of b and returns the
// value and the remainder of the buffer.
func Uint32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, ErrShortKey
	}
	return binary.BigEndian.Uint32(b), b[4:], nil
}

// Uint64 decodes a fixed-width uint64 at the front of b.
func Uint64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrShortKey
	}
	return binary.BigEndian.Uint64(b), b[8:], nil
}

// MustUint32 is Uint32 for keys known to be well-formed (engine-internal
// use); it panics on malformed input.
func MustUint32(b []byte) (uint32, []byte) {
	v, rest, err := Uint32(b)
	if err != nil {
		panic(err)
	}
	return v, rest
}
