# sides.sh is sourced by exact.sh and pairs.sh, the two scripts that
# compare a parent revision with the working tree. It moves to the
# repository root and defines build_sides DIR REV, which empties DIR and
# builds into it the parent's fuzzyjoin CLI (DIR/parent-fuzzyjoin, from
# a git worktree at DIR/parent-src that is removed again when the
# sourcing script exits), the working tree's (DIR/change-fuzzyjoin) and
# the working tree's datagen (DIR/datagen).

GO=${GO:-go}
root=$(git rev-parse --show-toplevel)
cd "$root"

build_sides() {
	dir=$1
	rev=$(git rev-parse --verify --quiet "$2^{commit}") || {
		echo "$(basename "$0"): $2 is not a commit" >&2
		exit 2
	}
	src=$dir/parent-src
	remove_worktree # one left by an interrupted run
	rm -rf "$dir"
	mkdir -p "$dir"
	trap remove_worktree EXIT
	trap 'exit 130' INT TERM
	echo "$(basename "$0"): building $(git rev-parse --short "$rev") and the working tree"
	git worktree add --quiet --detach "$src" "$rev"
	(cd "$src" && $GO build -o "$root/$dir/parent-fuzzyjoin" ./cmd/fuzzyjoin)
	$GO build -o "$dir/change-fuzzyjoin" ./cmd/fuzzyjoin
	$GO build -o "$dir/datagen" ./cmd/datagen
}

remove_worktree() {
	git worktree remove --force "$src" 2>/dev/null || true
	git worktree prune
}
