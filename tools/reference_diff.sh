#!/bin/sh
# Compare the reference outputs of the revision REV with those of this
# working tree, byte for byte:
#
#     tools/reference_diff.sh HEAD~1
#
# REV is unpacked with `git archive` into a temporary directory (no git
# metadata), each checkout writes its outputs with its own
# tools/reference_outputs.sh, and `diff -r old new` is printed.  The exit
# status is diff's: 0 when every file is identical, 1 when some differ.
# The temporary directory is removed on exit.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
git -C "$root" rev-parse --verify --quiet "$1^{commit}" >/dev/null || {
    echo "$0: not a revision: $1" >&2
    exit 2
}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' HUP INT TERM
mkdir "$tmp/checkout"
git -C "$root" archive "$1" | tar -x -C "$tmp/checkout"
sh "$tmp/checkout/tools/reference_outputs.sh" "$tmp/old"
sh "$root/tools/reference_outputs.sh" "$tmp/new"
status=0
(cd "$tmp" && diff -r old new) || status=$?
exit "$status"
