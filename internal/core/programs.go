package core

import (
	"encoding/json"
	"fmt"

	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/tokenize"
)

// This file makes every pipeline job's task bodies reconstructible in
// another process. A job's function-valued fields (mapper and reducer)
// cannot travel over RPC, so each job instead carries a program name
// ("core") plus a JSON progSpec, and both the coordinator and the worker
// build the bodies through the one registered builder. The
// coordinator-side job constructors use the same programFor the worker
// does, so in-process and distributed execution run literally the same
// task code — the conformance harness's byte-identity guarantee rests on
// that.

// CoreProgram is the program name the pipeline registers with the
// engine; worker binaries that import this package can rebuild any
// pipeline job from its JobSpec.
const CoreProgram = "core"

func init() {
	mapreduce.RegisterProgram(CoreProgram, buildCoreProgram)
}

// tokSpec serializes the stock tokenizers. A Config carrying any other
// Tokenizer implementation still runs in-process but cannot be
// dispatched to workers (its job gets no Program).
type tokSpec struct {
	Kind string `json:"kind"`
	Q    int    `json:"q,omitempty"`
}

func tokSpecOf(t tokenize.Tokenizer) (tokSpec, bool) {
	switch tk := t.(type) {
	case tokenize.Word:
		return tokSpec{Kind: "word"}, true
	case tokenize.QGram:
		return tokSpec{Kind: "qgram", Q: tk.Q}, true
	}
	return tokSpec{}, false
}

func (ts tokSpec) tokenizer() (tokenize.Tokenizer, error) {
	switch ts.Kind {
	case "word":
		return tokenize.Word{}, nil
	case "qgram":
		return tokenize.QGram{Q: ts.Q}, nil
	}
	return nil, fmt.Errorf("core: unknown tokenizer kind %q", ts.Kind)
}

// progSpec identifies one job's task bodies: the kind selects the
// mapper/reducer pair, Cfg and Tok carry the Config — every field not
// tagged json:"-" in config.go travels as itself, so a new task-visible
// field reaches workers without being mirrored here; the Tokenizer, an
// interface, travels as its tokSpec — and the remaining fields carry the
// per-job parameters (side-file names, BRJ's paired-RID sets among them;
// the R input file, whose presence marks an R-S job and which the
// relation tags are derived from).
type progSpec struct {
	Kind string  `json:"kind"`
	Cfg  *Config `json:"cfg"`
	Tok  tokSpec `json:"tok"`

	TokenFile   string   `json:"token_file,omitempty"`
	InputR      string   `json:"input_r,omitempty"`
	PairsPrefix string   `json:"pairs_prefix,omitempty"`
	PairFiles   []string `json:"pair_files,omitempty"`
	RIDFiles    []string `json:"rid_files,omitempty"`
}

func buildCoreProgram(spec string) (*mapreduce.Program, error) {
	var ps progSpec
	if err := json.Unmarshal([]byte(spec), &ps); err != nil {
		return nil, fmt.Errorf("core: decoding program spec: %w", err)
	}
	if ps.Cfg == nil || ps.Cfg.Filters == nil {
		return nil, fmt.Errorf("core: program spec %q carries no config", ps.Kind)
	}
	tok, err := ps.Tok.tokenizer()
	if err != nil {
		return nil, err
	}
	ps.Cfg.Tokenizer = tok
	return programFor(ps.Cfg, ps)
}

// relOfFor rebuilds the relation-tag closure: self-joins tag everything
// R; R-S joins tag by comparison against the R input file name.
func relOfFor(ps progSpec) func(string) byte {
	inputR := ps.InputR
	return func(file string) byte {
		if inputR == "" || file == inputR {
			return relR
		}
		return relS
	}
}

// programFor constructs one job's task bodies from a live Config and
// the job parameters. It is the single construction path: the
// coordinator calls it with its own Config (which may hold a custom,
// unserializable tokenizer); the worker calls it through
// buildCoreProgram with a Config rebuilt from the spec.
func programFor(cfg *Config, ps progSpec) (*mapreduce.Program, error) {
	p := &mapreduce.Program{}
	rs := ps.InputR != ""
	switch ps.Kind {
	case "s1-bto-count":
		p.Mapper = &tokenCountMapper{cfg: cfg}
		p.Reducer = &sumReducer{}
	case "s1-bto-sort":
		p.Mapper = countSwapMapper
		p.Reducer = emitTokenReducer
	case "s1-opto":
		p.Mapper = &tokenCountMapper{cfg: cfg}
		p.Reducer = &optoReducer{}
	case "s2":
		layout := layoutFor(cfg, rs)
		p.Mapper = &stage2Mapper{cfg: cfg, tokenFile: ps.TokenFile, inputR: ps.InputR}
		own := owner{cfg: cfg, tokenFile: ps.TokenFile, self: !rs}
		// Validate admits block processing and length routing for BK only.
		switch {
		case cfg.Kernel == PK:
			p.Reducer = &pkReducer{owner: own, layout: layout}
		case cfg.Kernel == FVT:
			p.Reducer = &fvtReducer{owner: own, layout: layout}
		case cfg.BlockMode == ReduceBlocks:
			p.Reducer = &spillReducer{owner: own, layout: layout}
		default:
			p.Reducer = &roundReducer{owner: own, layout: layout}
		}
	case "s3-brj1":
		p.Mapper = &brjPhase1Mapper{pairsPrefix: ps.PairsPrefix, ridFiles: ps.RIDFiles, relOf: relOfFor(ps), rs: rs}
		p.Reducer = &brjPhase1Reducer{rs: rs}
	case "s3-brj2":
		p.Mapper = mapreduce.IdentityMapper
		p.Reducer = &pairAssembleReducer{}
	case "s3-oprj":
		p.Mapper = &oprjMapper{pairFiles: ps.PairFiles, relOf: relOfFor(ps), rs: rs}
		p.Reducer = &pairAssembleReducer{}
	case "ss-carry":
		p.Mapper = &carryRecordsMapper{cfg: cfg, tokenFile: ps.TokenFile}
		p.Reducer = &carryRecordsReducer{cfg: cfg}
	case "ss-dedup":
		p.Mapper = mapreduce.IdentityMapper
		p.Reducer = &dedupFirstReducer{}
	default:
		return nil, fmt.Errorf("core: unknown program kind %q", ps.Kind)
	}
	return p, nil
}

// coreJob assembles the engine half of one pipeline job around a
// program spec: task bodies from programFor, engine policy copied from
// the Config. Every job partitions and groups on whole keys except Stage
// 2, which partitions and groups on its key layout's groupWidth
// (stage2_keys.go) and sorts on the whole key. When the Config is fully
// serializable the job carries Program/ProgramSpec and is eligible for
// dispatch to worker processes; otherwise it runs in-process only.
func coreJob(cfg *Config, ps progSpec) (mapreduce.Job, error) {
	var serializable bool
	ps.Cfg = cfg
	ps.Tok, serializable = tokSpecOf(cfg.Tokenizer)
	prog, err := programFor(cfg, ps)
	if err != nil {
		return mapreduce.Job{}, err
	}
	job := mapreduce.Job{
		FS:            cfg.FS,
		Mapper:        prog.Mapper,
		Reducer:       prog.Reducer,
		NumReducers:   cfg.NumReducers,
		MemoryLimit:   cfg.MemoryLimit,
		Parallelism:   cfg.Parallelism,
		Retry:         cfg.Retry,
		FaultInjector: cfg.FaultInjector,
		Trace:         cfg.Trace,
		Runner:        cfg.Runner,
		Buffers:       cfg.buffers,
	}
	if ps.Kind == "s2" {
		job.GroupPrefix = layoutFor(cfg, ps.InputR != "").groupWidth
	}
	if serializable {
		data, err := json.Marshal(ps)
		if err != nil {
			return mapreduce.Job{}, err
		}
		job.Program = CoreProgram
		job.ProgramSpec = string(data)
	}
	return job, nil
}
