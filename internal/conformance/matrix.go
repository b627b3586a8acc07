package conformance

import (
	"fmt"
	"strings"

	"fuzzyjoin/internal/core"
)

// ExecMode is the execution dimension of the matrix: the same variant
// run plainly, under injected task faults, with host parallelism, or
// dispatched to real worker processes over RPC. None of these may
// change the result by so much as a byte.
type ExecMode int

const (
	// ExecPlain runs single-threaded with no faults.
	ExecPlain ExecMode = iota
	// ExecFaults injects deterministic task-attempt failures (25% of
	// tasks fail their first attempt) under a 3-attempt retry policy.
	ExecFaults
	// ExecParallel runs tasks on 4 host goroutines.
	ExecParallel
	// ExecDist dispatches every task attempt to real worker processes
	// over RPC (Params.Runner must carry a distrib session's runner).
	ExecDist
)

func (e ExecMode) String() string {
	switch e {
	case ExecFaults:
		return "faults"
	case ExecParallel:
		return "parallel"
	case ExecDist:
		return "dist"
	default:
		return "plain"
	}
}

// Variant is one cell of the conformance matrix: a complete pipeline
// configuration whose result must equal the oracle's.
type Variant struct {
	// RS selects the R-S join (false = self-join).
	RS bool
	// TokenOrder, Kernel, RecordJoin pick the per-stage algorithms.
	TokenOrder core.TokenOrderAlg
	Kernel     core.KernelAlg
	RecordJoin core.RecordJoinAlg
	// Routing is individual or grouped prefix-token routing.
	Routing core.Routing
	// Block is the §5 insufficient-memory strategy (BK kernel only).
	Block BlockAxis
	// Exec is the execution dimension.
	Exec ExecMode
}

func (v Variant) joinName() string {
	if v.RS {
		return "rs"
	}
	return "self"
}

func (v Variant) combo() string {
	return fmt.Sprintf("%s-%s-%s", v.TokenOrder, v.Kernel, v.RecordJoin)
}

// BlockAxis is the §5 dimension of the matrix: no strategy, map- or
// reduce-based block processing, or length routing — alternatives, as
// core.Validate enforces. The first three values equal the
// core.BlockMode they select.
type BlockAxis int

const (
	BlocksNone BlockAxis = iota
	BlocksMap
	BlocksReduce
	BlocksLenRoute
)

var blockNames = []string{"none", "map", "reduce", "lenroute"}

func (b BlockAxis) String() string { return blockNames[b] }

// Name renders the variant compactly, e.g.
// "self/BTO-BK-BRJ/grouped/blocks=map/faults".
func (v Variant) Name() string {
	return fmt.Sprintf("%s/%s/%s/blocks=%s/%s",
		v.joinName(), v.combo(), v.Routing, v.Block, v.Exec)
}

// Flags renders the exact ssjcheck invocation that re-runs this single
// variant on this workload — the reproducer printed on divergence.
func (v Variant) Flags(w Workload, p Params) string {
	w = w.fill()
	p = p.fill()
	s := fmt.Sprintf("ssjcheck -seed %d -records %d -vocab %d -tau %g -join %s -combo %s -routing %s -blocks %s -exec %s",
		w.Seed, w.Records, w.Vocab, p.Threshold,
		v.joinName(), v.combo(), v.Routing, v.Block, v.Exec)
	if v.Exec == ExecDist {
		s += " -workers 2"
	}
	if w.Skew != 0 {
		s += fmt.Sprintf(" -skew %g", w.Skew)
	}
	if w.NearDupRate != 0 {
		s += fmt.Sprintf(" -neardup %g", w.NearDupRate)
	}
	if w.TitleMin != 0 || w.TitleMax != 0 {
		s += fmt.Sprintf(" -title-min %d -title-max %d", w.TitleMin, w.TitleMax)
	}
	return s
}

// Filter restricts the matrix to a subset, by comma-separated value
// lists. Empty fields mean "all". Values match the tokens used in
// Variant names and ssjcheck flags: joins "self,rs"; combos like
// "BTO-PK-OPRJ"; routings "individual,grouped"; blocks
// "none,map,reduce,lenroute"; execs "plain,faults,parallel,dist".
type Filter struct {
	Joins    string
	Combos   string
	Routings string
	Blocks   string
	Execs    string
}

// keep reports whether value passes a comma-separated allowlist.
func keep(list, value string) bool {
	if strings.TrimSpace(list) == "" {
		return true
	}
	for _, v := range strings.Split(list, ",") {
		if strings.EqualFold(strings.TrimSpace(v), value) {
			return true
		}
	}
	return false
}

// validate rejects filter values that match nothing, so a typo like
// "-blocks mpa" fails loudly instead of silently sweeping nothing.
func (f Filter) validate() error {
	check := func(flag, list string, valid []string) error {
		if strings.TrimSpace(list) == "" {
			return nil
		}
		for _, v := range strings.Split(list, ",") {
			v = strings.TrimSpace(v)
			ok := false
			for _, w := range valid {
				if strings.EqualFold(v, w) {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("conformance: %s value %q not in %v", flag, v, valid)
			}
		}
		return nil
	}
	if err := check("-join", f.Joins, []string{"self", "rs"}); err != nil {
		return err
	}
	var combos []string
	for _, to := range []core.TokenOrderAlg{core.BTO, core.OPTO} {
		for _, k := range []core.KernelAlg{core.BK, core.PK, core.FVT} {
			for _, rj := range []core.RecordJoinAlg{core.BRJ, core.OPRJ} {
				combos = append(combos, fmt.Sprintf("%s-%s-%s", to, k, rj))
			}
		}
	}
	if err := check("-combo", f.Combos, combos); err != nil {
		return err
	}
	if err := check("-routing", f.Routings, []string{"individual", "grouped"}); err != nil {
		return err
	}
	if err := check("-blocks", f.Blocks, blockNames); err != nil {
		return err
	}
	return check("-exec", f.Execs, []string{"plain", "faults", "parallel", "dist"})
}

// Matrix enumerates every valid variant passing the filter, in a fixed
// deterministic order: join × token order × kernel × record join ×
// routing × block axis × exec mode. Block values other than "none" are
// only generated for the BK kernel (the §5 strategies are BK-only, as
// core.Validate enforces).
func Matrix(f Filter) ([]Variant, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	var out []Variant
	for _, rs := range []bool{false, true} {
		if !keep(f.Joins, map[bool]string{false: "self", true: "rs"}[rs]) {
			continue
		}
		for _, to := range []core.TokenOrderAlg{core.BTO, core.OPTO} {
			for _, k := range []core.KernelAlg{core.BK, core.PK, core.FVT} {
				for _, rj := range []core.RecordJoinAlg{core.BRJ, core.OPRJ} {
					v := Variant{RS: rs, TokenOrder: to, Kernel: k, RecordJoin: rj}
					if !keep(f.Combos, v.combo()) {
						continue
					}
					for _, routing := range []core.Routing{core.IndividualTokens, core.GroupedTokens} {
						if !keep(f.Routings, routing.String()) {
							continue
						}
						blocks := []BlockAxis{BlocksNone}
						if k == core.BK {
							blocks = append(blocks, BlocksMap, BlocksReduce, BlocksLenRoute)
						}
						for _, bm := range blocks {
							if !keep(f.Blocks, bm.String()) {
								continue
							}
							for _, exec := range []ExecMode{ExecPlain, ExecFaults, ExecParallel, ExecDist} {
								if !keep(f.Execs, exec.String()) {
									continue
								}
								v2 := v
								v2.Routing = routing
								v2.Block = bm
								v2.Exec = exec
								out = append(out, v2)
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}
