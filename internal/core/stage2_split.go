package core

// Adaptive hot-token skew splitting (Config.SplitK) — the skew
// mitigation the paper lacks. A single very frequent prefix token turns
// its Stage 2 reduce group into a straggler: the group's kernel work
// grows superlinearly in the group size while every other reducer
// idles. Splitting divides a hot token's group into sub-cells the
// partitioner can spread across reducers.
//
// Scheme (the "triangle" 1-bucket replication of Afrati–Ullman, applied
// per hot token): each record is deterministically assigned a salt
// class s = splitSalt(RID) ∈ [0, k). For a hot prefix token, the record
// is replicated to the k cells {(min(s,j), max(s,j)) : j ∈ [0, k)} of
// the token's group, where the unordered salt pair (a, b) is numbered
// by splitCell. Two records with salts s₁ ≠ s₂ co-occur in exactly the
// cell (min(s₁,s₂), max(s₁,s₂)); records with equal salts co-occur in
// all k of their cells. Every candidate pair therefore still meets in
// at least one cell of every group its shared prefix tokens route to —
// the kernels are exact on whatever item set they see, so no τ-pair is
// lost. A same-salt pair is still emitted once: the owner rule
// (stage2_owner.go) gives a pair whose minimal common prefix token is hot
// to the cell splitCell(salt(A), salt(B)) alone — the diagonal cell when
// the salts are equal — so a split Stage 2 is one job whose output is a
// set, like an unsplit one.
//
// Cold tokens (ranks below the SplitHotCount frequency head) keep the
// single unsalted cell 0; hot cells are numbered from 1, and k ≤ 15
// keeps 1 + k(k+1)/2 ≤ 121 within the cell byte.

// splitSalt deterministically assigns a RID to one of k salt classes
// (FNV-1a over the big-endian RID bytes; stable across processes, so
// distributed workers agree with the coordinator).
func splitSalt(rid uint64, k int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for shift := 56; shift >= 0; shift -= 8 {
		h ^= (rid >> uint(shift)) & 0xff
		h *= prime64
	}
	return int(h % uint64(k))
}

// splitCell numbers the unordered salt pair {s, j} within the upper
// triangle of a k×k grid, offset by 1 to keep cell 0 for cold tokens.
func splitCell(s, j, k int) uint8 {
	a, b := s, j
	if a > b {
		a, b = b, a
	}
	// Row a holds k-a cells: (a,a) .. (a,k-1).
	idx := a*k - a*(a-1)/2 + (b - a)
	return uint8(1 + idx)
}
