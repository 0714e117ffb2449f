#!/bin/sh
# Dependency boundary gate for the serving binaries: reduxd and reduxgw
# must not link the paper's cycle simulator or its experiment-only
# packages. The simulator (vtime, simcache, simarch, pclr), the adaptive
# runtime model built on it (core) and the speculative-parallelization
# model (spec) reproduce the paper's figures; the served engine needs none
# of them, and an import that drags them back in fails here.
set -eu

GO=${GO:-go}
forbidden='repro/internal/core repro/internal/simarch repro/internal/pclr repro/internal/vtime repro/internal/simcache repro/internal/spec'

deps=$($GO list -deps ./cmd/reduxd ./cmd/reduxgw)
bad=''
for pkg in $forbidden; do
	if printf '%s\n' "$deps" | grep -qx "$pkg"; then
		bad="$bad $pkg"
	fi
done
if [ -n "$bad" ]; then
	echo "deps-check: serving binaries link simulator packages:$bad" >&2
	echo "(trace the import with: $GO list -deps -f '{{.ImportPath}}: {{join .Imports \" \"}}' ./cmd/reduxd ./cmd/reduxgw)" >&2
	exit 1
fi
echo "deps-check: reduxd and reduxgw link none of:$(printf ' %s' $forbidden | sed 's#repro/internal/##g')"
