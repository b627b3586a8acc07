package experiments

import "fuzzyjoin/internal/cluster"

// Suite caches executed stage sets across experiments so figures sharing
// a (workload, cluster) cell (e.g. Figure 9 and Table 1) run each job
// once.
type Suite struct {
	w    *workload
	sets map[cellKey]*stageSet
}

type cellKey struct {
	factor, nodes int
	rs            bool
}

// NewSuite prepares a suite for the given parameters.
func NewSuite(p Params) *Suite {
	return &Suite{w: newWorkload(p), sets: map[cellKey]*stageSet{}}
}

// selfSet is the self-join DBLP×factor cell on nodes nodes.
func (s *Suite) selfSet(factor, nodes int) (*stageSet, error) {
	return s.stageSet(cellKey{factor, nodes, false})
}

// rsSet is the R-S DBLP×factor ⋈ CITESEERX×factor cell on nodes nodes.
func (s *Suite) rsSet(factor, nodes int) (*stageSet, error) {
	return s.stageSet(cellKey{factor, nodes, true})
}

func (s *Suite) stageSet(k cellKey) (*stageSet, error) {
	if set, ok := s.sets[k]; ok {
		return set, nil
	}
	inputs := []string{"dblp"}
	if k.rs {
		inputs = append(inputs, "cite")
	}
	set, err := s.w.runStageSet(k.factor, k.nodes, inputs...)
	if err != nil {
		return nil, err
	}
	s.sets[k] = set
	return set, nil
}

func spec(nodes int) cluster.Spec { return cluster.Default(nodes) }
