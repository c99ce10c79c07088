#!/bin/sh
# Single-use audit over one party's logs. Every durable claim of a bank
# store logs one `bank claim` line naming the half's pool (its scope
# digest) and its correlation id, after the claim is on disk and before
# the half is used. So a (scope, id) pair in two lines is a half spent
# twice, whatever the store on disk says. A run with no claim line
# checked nothing and fails too.
#
# Usage: scripts/claimcheck.sh PARTY LOG...
set -eu
party="$1"
shift
pairs=$(cat "$@" | sed -n 's/.*msg="bank claim".* scope=\([0-9a-f]*\) id=\([0-9a-f]*\).*/\1 \2/p')
if [ -z "$pairs" ]; then
    echo "$party: no bank claim lines in $*" >&2
    exit 1
fi
dupes=$(echo "$pairs" | sort | uniq -d)
if [ -n "$dupes" ]; then
    echo "$party: correlations claimed twice (scope id):" >&2
    echo "$dupes" >&2
    exit 1
fi
echo "$party: $(echo "$pairs" | wc -l) durable claims, none twice"
