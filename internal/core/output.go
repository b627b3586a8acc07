package core

import (
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
)

// WalkJoined calls fn for every pair of a completed join's final output
// (the part files under Result.Output), in part-file order, one line at
// a time, so nothing holds the whole output. Each line is split in place
// (records.SplitJoinedPair): fn gets the similarity and the two record
// lines, which alias the DFS block, so fn copies what it keeps. A
// malformed line stops the walk with an error that names its part file;
// so does an error from fn.
func WalkJoined(fs dfs.Storage, outputPrefix string, fn func(sim float64, left, right []byte) error) error {
	return WalkJoinedLines(fs, outputPrefix, func(line []byte) error {
		sim, left, right, err := records.SplitJoinedPair(line)
		if err != nil {
			return err
		}
		return fn(sim, left, right)
	})
}

// WalkJoinedLines is WalkJoined before the split: fn gets each non-empty
// line of the final output as it lies in the DFS block.
func WalkJoinedLines(fs dfs.Storage, outputPrefix string, fn func(line []byte) error) error {
	_, err := mapreduce.Walk(fs, outputPrefix+"/", mapreduce.Text, func(_, line []byte) error {
		if len(line) == 0 {
			return nil
		}
		return fn(line)
	})
	return err
}

// WalkRIDPairs calls fn for every RID pair in the part files of a Stage 2
// output (Result.RIDPairs), block by block in place, and returns the
// bytes read.
func WalkRIDPairs(fs dfs.Storage, pairsPrefix string, fn func(records.RIDPair) error) (int64, error) {
	return mapreduce.Walk(fs, pairsPrefix+"/", mapreduce.Pairs, func(_, v []byte) error {
		p, err := records.DecodeRIDPair(v)
		if err != nil {
			return err
		}
		return fn(p)
	})
}
