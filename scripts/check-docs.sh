#!/usr/bin/env bash
# Documentation gate, run by CI:
#
#  1. Every Go package must carry a package comment (go list .Doc) —
#     internal/analysis included, whose doc is the analyzer suite's
#     front door.
#  2. Every gkfs-bench / gkfs-shell flag the docs mention must exist in
#     the binary's -h output — README/docs drift fails the build.
#  3. Every analyzer gkfs-vet ships must be documented in
#     docs/INVARIANTS.md, so the invariant catalog cannot drift behind
#     the suite.
#  4. Every exported metric name (`gkfs-daemon -print-metrics`) must
#     appear in docs/OBSERVABILITY.md, so the metric catalog cannot
#     drift behind the telemetry tier.
#  5. Every backticked repo-relative path the docs name (`internal/…`,
#     `cmd/…`, `scripts/…`, `docs/…`, `bench/…`, `gekkofs/…`,
#     `examples/…`) must exist: a `:line` suffix is stripped and a `<N>`
#     placeholder matches as a glob.
#
# Flag extraction covers three shapes:
#   - backticked `-flags` on lines naming the binary (prose, usage),
#   - bare -flags on command lines invoking the binary (code blocks,
#     any prefix: `gkfs-bench ...`, `./gkfs-shell ...`, `go run ./cmd/...`),
#   - backticked `-flags` in a markdown-table column headed "CLI" (the
#     README knob table): the shared registration, so every checked
#     binary must have them.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

missing=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./...)
if [ -n "$missing" ]; then
  echo "packages without a package comment:"
  echo "$missing"
  fail=1
fi

# The analyzer suite's package comment is the contract other sessions
# read first; require it explicitly even if the sweep above changes.
if [ -z "$(go list -f '{{.Doc}}' ./internal/analysis)" ]; then
  echo "internal/analysis has no package comment"
  fail=1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp" ./cmd/gkfs-bench ./cmd/gkfs-shell ./cmd/gkfs-vet ./cmd/gkfs-daemon

# Every exported metric must appear in the observability catalog.
while read -r metric; do
  if ! grep -q "\`$metric\`" docs/OBSERVABILITY.md; then
    echo "metric $metric is exported but not documented in docs/OBSERVABILITY.md"
    fail=1
  fi
done < <("$tmp/gkfs-daemon" -print-metrics)

# Every shipped analyzer must appear in the invariant catalog.
while IFS=$'\t' read -r name _; do
  if ! grep -qE "^## $name\b" docs/INVARIANTS.md; then
    echo "analyzer $name has no '## $name' section in docs/INVARIANTS.md"
    fail=1
  fi
done < <("$tmp/gkfs-vet" -list)

docs=(README.md docs/*.md)

# Every repo path a doc names in backticks must exist.
while read -r path; do
  if ! compgen -G "${path//<N>/*}" > /dev/null; then
    echo "docs name $path, which does not exist"
    fail=1
  fi
done < <(
  grep -ohE '`[^`]+`' "${docs[@]}" | tr -d '`' | awk '{print $1}' |
    grep -E '^(internal|cmd|scripts|docs|bench|gekkofs|examples)/' |
    sed -E 's/:[0-9][-0-9,–]*$//' | sort -u
)

# Emit every table cell under a "CLI" column header, across all docs:
# the shared flags (internal/cli), which every checked binary must have.
cli_cells() {
  awk '
    /^\|/ {
      n = split($0, f, "|")
      if (!intable) {
        intable = 1
        cli = 0
        for (i = 1; i <= n; i++) if (f[i] ~ /^ *CLI *$/) cli = i
        next
      }
      if (cli && cli <= n) print f[cli]
      next
    }
    { intable = 0 }
  ' "${docs[@]}"
}

for bin in gkfs-bench gkfs-shell; do
  "$tmp/$bin" -h 2> "$tmp/$bin.help" || true
  flags=$(
    {
      grep -hE "\b$bin\b" "${docs[@]}" | grep -oE '`-[a-z][a-z-]*' | tr -d '`' || true
      grep -hE "^\s*\S*\b$bin\b" "${docs[@]}" | grep -oE ' -[a-z][a-z-]*' | tr -d ' ' || true
      cli_cells | grep -oE '`-[a-z][a-z-]*' | tr -d '`' || true
    } | sort -u
  )
  if [ -z "$flags" ]; then
    echo "$bin: no documented flags found — extraction is broken"
    fail=1
    continue
  fi
  for f in $flags; do
    if ! grep -qE "^  ${f}([ \t]|$)" "$tmp/$bin.help"; then
      echo "$bin: flag $f is documented but not in '$bin -h' output"
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "docs check failed"
  exit 1
fi
echo "docs check OK: package comments present, documented flags and paths exist"
