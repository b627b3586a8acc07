package core

import (
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/tokenize"
)

// maxRecordScratch bounds, in bytes, what a recordScratch slice keeps
// from one record to the next (tokenize.Buffer applies its own cap): one
// oversized record does not pin its buffers for the rest of the task.
const maxRecordScratch = 1 << 20

// reuseScratch empties a per-task byte buffer for the next record,
// letting go of one that outgrew maxRecordScratch.
func reuseScratch(b []byte) []byte {
	if cap(b) > maxRecordScratch {
		return nil
	}
	return b[:0]
}

// recordScratch is one map task's record → token → rank path: the join
// attribute read from the line bytes, its token set, and the tokens'
// sorted ranks, each in storage reused from record to record. Mappers
// embed it; what readTokens and project leave there is valid until their next
// call.
type recordScratch struct {
	attr  []byte
	toks  tokenize.Buffer
	ranks []uint32
}

// readTokens reads a record line's RID and fills toks with the token set
// of its join attribute.
func (s *recordScratch) readTokens(cfg *Config, line []byte) (rid uint64, err error) {
	if rid, s.attr, err = records.AppendJoinAttr(reuseScratch(s.attr), line, cfg.JoinFields); err != nil {
		return 0, err
	}
	s.toks.Fill(cfg.Tokenizer, s.attr)
	return rid, nil
}

// project returns a record line's RID and the sorted ranks of its
// join-attribute tokens under order, tokens outside the order dropped.
func (s *recordScratch) project(cfg *Config, order *tokenize.Order, line []byte) (uint64, []uint32, error) {
	rid, err := s.readTokens(cfg, line)
	if err != nil {
		return 0, nil, err
	}
	if 4*cap(s.ranks) > maxRecordScratch {
		s.ranks = nil
	}
	s.ranks = order.AppendRanks(s.ranks[:0], &s.toks)
	return rid, s.ranks, nil
}
