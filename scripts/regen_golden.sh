#!/usr/bin/env bash
# Rewrites the golden fingerprint table (tests/golden/paths.txt) from the
# current tree: one fixed-seed run per scheduler x feature-set row. Commit
# the result only for a deliberate re-baseline, and name every moved row
# and its cause in the change description.
#
# Usage: scripts/regen_golden.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
cmake --build "$BUILD_DIR" --target golden_test -j "$(nproc 2>/dev/null || echo 4)"
"$BUILD_DIR/tests/golden_test" --regenerate=tests/golden/paths.txt
echo "wrote tests/golden/paths.txt ($(grep -vc '^#' tests/golden/paths.txt) rows)"
