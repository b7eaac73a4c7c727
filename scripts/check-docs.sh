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
#     the suite, and its section must record "The defect it catches in
#     the live tree" — an analyzer is kept on evidence.
#  4. Every exported metric name (`gkfs-daemon -print-metrics`) must
#     appear in docs/OBSERVABILITY.md, and every backticked `gkfs_*` name
#     there must be exported, so the metric catalog can neither drift
#     behind the telemetry tier nor keep a metric it no longer has.
#  5. Every backticked repo-relative path the docs name (`internal/…`,
#     `cmd/…`, `scripts/…`, `docs/…`, `bench/…`, `gekkofs/…`,
#     `examples/…`) must exist: a `:line` suffix is stripped and a `<N>`
#     placeholder matches as a glob.
#  6. The protocol generation docs/ARCHITECTURE.md declares current —
#     its one "The current protocol generation is vN" sentence; the
#     historical "(protocol vN)" asides are not statements of it — must
#     equal proto.ProtocolVersion.
#  7. Every backticked library option the docs name (`WithX(…)`, `WithX`,
#     `gekkofs.WithX`) must be an exported `func WithX` in gekkofs — the
#     library half of gate 2, so a deleted option cannot linger in the
#     knob table.
#  8. Every backticked benchmark the docs name (`BenchmarkX`, also as
#     `BenchmarkX/sub`) must be a benchmark function in some _test.go,
#     and every `BenchmarkX*` wildcard must match at least one, so a
#     deleted benchmark cannot stay cited. docs/bench/ is not scanned:
#     its ledgers are history, as are ROADMAP.md and CHANGES.md.
#  9. Every `|`-alternative of every `-run` / `-fuzz` pattern in
#     .github/workflows/ci.yml must match a Test, Fuzz or Benchmark
#     function of the packages on its line (`go test` runs nothing, and
#     says nothing, for a term that matches no test). The deliberate
#     match-nothing patterns `^$` and `-` are skipped, and a term is
#     checked up to its first `/` (the top-level test name).
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

# Every exported metric must appear in the observability catalog, and
# every metric the catalog names must be exported.
"$tmp/gkfs-daemon" -print-metrics > "$tmp/metrics"
if [ ! -s "$tmp/metrics" ]; then
  echo "gkfs-daemon -print-metrics printed nothing — extraction is broken"
  fail=1
fi
while read -r metric; do
  if ! grep -q "\`$metric\`" docs/OBSERVABILITY.md; then
    echo "metric $metric is exported but not documented in docs/OBSERVABILITY.md"
    fail=1
  fi
done < "$tmp/metrics"
while read -r metric; do
  if ! grep -qxF "$metric" "$tmp/metrics"; then
    echo "docs/OBSERVABILITY.md names metric $metric, which gkfs-daemon -print-metrics does not export"
    fail=1
  fi
done < <(grep -ohE '`gkfs_[a-z0-9_]+`' docs/OBSERVABILITY.md | tr -d '`' | sort -u)

# Every shipped analyzer must appear in the invariant catalog, and its
# section must record the defect it catches in the live tree.
while IFS=$'\t' read -r name _; do
  if ! grep -qE "^## $name\b" docs/INVARIANTS.md; then
    echo "analyzer $name has no '## $name' section in docs/INVARIANTS.md"
    fail=1
  elif ! awk -v name="$name" '
      /^## / { in_section = ($0 ~ "^## " name "([^A-Za-z0-9_]|$)") }
      in_section && /The defect it catches in the live tree/ { found = 1 }
      END { exit !found }' docs/INVARIANTS.md; then
    echo "analyzer $name: its section in docs/INVARIANTS.md has no 'The defect it catches in the live tree' record"
    fail=1
  fi
done < <("$tmp/gkfs-vet" -list)

# The protocol generation the docs declare current is the code's.
code_proto=$(sed -nE 's/^const ProtocolVersion uint16 = ([0-9]+)$/\1/p' internal/proto/proto.go)
doc_proto=$(grep -oE 'The current protocol generation is v[0-9]+' docs/ARCHITECTURE.md | grep -oE '[0-9]+$' || true)
if [ -z "$code_proto" ]; then
  echo "no 'const ProtocolVersion uint16 = N' in internal/proto/proto.go — extraction is broken"
  fail=1
elif [ "$(printf '%s\n' "$doc_proto" | grep -c .)" -ne 1 ]; then
  echo "docs/ARCHITECTURE.md must say 'The current protocol generation is vN' exactly once"
  fail=1
elif [ "$doc_proto" != "$code_proto" ]; then
  echo "docs/ARCHITECTURE.md declares protocol v$doc_proto current; proto.ProtocolVersion is $code_proto"
  fail=1
fi

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

# Every library option a doc names must exist in gekkofs.
options=$(grep -rhoE '^func With[A-Z][A-Za-z0-9]*\(' --include='*.go' --exclude='*_test.go' gekkofs |
  sed -E 's/^func (With[A-Za-z0-9]*)\($/\1/' | sort -u)
if [ -z "$options" ]; then
  echo "no 'func WithX(' in gekkofs — extraction is broken"
  fail=1
fi
while read -r opt; do
  if ! grep -qxF "$opt" <<< "$options"; then
    echo "docs name library option $opt, which gekkofs does not export"
    fail=1
  fi
done < <(
  grep -ohE '`(gekkofs\.)?With[A-Z][A-Za-z0-9]*[`(]' "${docs[@]}" |
    sed -E 's/^`(gekkofs\.)?//; s/[`(]$//' | sort -u
)

# Every benchmark a doc names must exist.
benches=$(grep -rhoE --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build \
  '^func Benchmark[A-Za-z0-9_]*\([a-z_]+ \*testing\.B\)' . | sed -E 's/^func ([A-Za-z0-9_]*)\(.*$/\1/' | sort -u)
if [ -z "$benches" ]; then
  echo "no 'func BenchmarkX(b *testing.B)' in any _test.go — extraction is broken"
  fail=1
fi
while read -r bench; do
  if [[ $bench == *\* ]]; then
    if ! grep -q "^${bench%\*}" <<< "$benches"; then
      echo "docs name $bench, which matches no benchmark"
      fail=1
    fi
  elif ! grep -qxF "$bench" <<< "$benches"; then
    echo "docs name benchmark $bench, which no _test.go defines"
    fail=1
  fi
done < <(
  grep -ohE '`[^`]+`' "${docs[@]}" | grep -oE 'Benchmark[A-Z][A-Za-z0-9_]*\*?' | sort -u
)

# Every term of every CI -run/-fuzz pattern must match a test function.
ci=.github/workflows/ci.yml
while IFS= read -r line; do
  dirs=()
  read -ra toks <<< "$line"
  for tok in "${toks[@]}"; do
    case $tok in
      .) dirs+=(.) ;;
      ./...) dirs+=(./...) ;;
      ./*) tok=${tok%/}; dirs+=("${tok%/...}") ;;
    esac
  done
  if [ ${#dirs[@]} -eq 0 ]; then
    echo "$ci: no package on: $line"
    fail=1
    continue
  fi
  tests=$(
    for d in "${dirs[@]}"; do
      if [ "$d" = ./... ]; then
        find . -path ./bench -prune -o -path ./.bench_build -prune -o -name '*_test.go' -print
      else
        find "$d" -maxdepth 1 -name '*_test.go'
      fi
    done | xargs -r grep -hoE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' | sed 's/^func //' | sort -u
  )
  while read -r pat; do
    pat=${pat#-run }; pat=${pat#-fuzz }; pat=${pat//\'/}
    [ "$pat" = '^$' ] || [ "$pat" = - ] && continue
    # Split at the top-level | (an alternation inside parentheses stays whole).
    while read -r term; do
      term=${term%%/*}
      if [ -z "$term" ] || ! grep -qE -- "$term" <<< "$tests"; then
        echo "$ci: -run/-fuzz term '$term' matches no test in ${dirs[*]}"
        fail=1
      fi
    done < <(awk '{ d = 0; t = ""
      for (i = 1; i <= length($0); i++) { c = substr($0, i, 1)
        if (c == "(") d++; if (c == ")") d--
        if (c == "|" && d == 0) { print t; t = "" } else t = t c }
      print t }' <<< "$pat")
  done < <(grep -oE -- "-(run|fuzz) ('[^']*'|[^ ]+)" <<< "$line")
done < <(grep -E 'go test .*-(run|fuzz) ' "$ci")

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
echo "docs check OK: package comments present, documented flags, options, paths and benchmarks exist, protocol generation current, every CI test pattern term matches a test"
