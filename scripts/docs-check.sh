#!/bin/sh
# Docs honesty check: every backticked path under internal/, cmd/,
# examples/ or scripts/ that DESIGN, README, PROTOCOL, SECURITY or
# EXPERIMENTS cites must exist. A citation may carry a :line suffix, be a
# glob (internal/*/testdata/fuzz), or name a symbol in a package
# (internal/transport.MeterEndpoint resolves to the package directory).
# PROTOCOL.md's title must also name the wire version the handshake
# speaks, helloVersion in internal/serve/wire.go, so a wire bump cannot
# leave the walkthrough behind. Run from the repository root; exits
# non-zero listing what is missing.
set -eu

missing=0
for doc in DESIGN.md README.md PROTOCOL.md SECURITY.md EXPERIMENTS.md; do
    for ref in $(grep -ohE '`(internal|cmd|examples|scripts)/[^` ]*`' "$doc" | tr -d '`' | sort -u); do
        path="${ref%%:*}"
        path="${path%/}"
        # The glob is left unquoted on purpose: ls expands it.
        if ls -d $path >/dev/null 2>&1; then
            continue
        fi
        case "${path##*.}" in
        [A-Z]*) [ -d "${path%.*}" ] && continue ;;
        esac
        echo "$doc: \`$ref\` does not exist"
        missing=$((missing + 1))
    done
done
wire=$(sed -n 's/^const helloVersion = \([0-9][0-9]*\)$/\1/p' internal/serve/wire.go)
title=$(sed -n '1s/.*wire version \([0-9][0-9]*\)$/\1/p' PROTOCOL.md)
if [ -z "$wire" ] || [ "$wire" != "$title" ]; then
    echo "PROTOCOL.md: title says wire version ${title:-none}, internal/serve/wire.go has helloVersion ${wire:-none}"
    missing=$((missing + 1))
fi
if [ "$missing" -ne 0 ]; then
    echo "docs-check: $missing stale path(s) or version(s)"
    exit 1
fi
