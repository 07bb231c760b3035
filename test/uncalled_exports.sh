#!/bin/sh
# Lists every `val` declared in lib/**/*.mli that no file in lib/, bin/,
# bench/ or examples/ other than its own module's .ml/.mli names as a
# whole word, and fails when one of them is missing from the allowlist
# test/uncalled_exports.allow (one `Module[.Sub] value reason` line per
# kept test oracle or test hook; every line needs a reason, and a line
# whose value is gone or has gained a caller fails too).
#
#   sh test/uncalled_exports.sh          # from the repository root
#   sh test/uncalled_exports.sh --all    # print every hit, allowed or not
#
# A whole-word grep is a heuristic: a common name used elsewhere for
# something else hides a value nothing calls, so a clean run is a floor.
set -eu
cd "$(dirname "$0")/.."
allow=test/uncalled_exports.allow

bad=$(awk 'NF && $1 !~ /^#/ && NF < 3' "$allow")
if [ -n "$bad" ]; then
  echo "uncalled_exports: allowlist lines without a reason:" >&2
  echo "$bad" >&2
  exit 1
fi

hits=$(mktemp)
trap 'rm -f "$hits"' EXIT

# Prints `path Module[.Sub] value` for every val, tracking `module X :
# sig` ... `end` nesting by indentation.
find lib -name '*.mli' | sort | while read -r mli; do
  awk -v path="$mli" '
    BEGIN {
      n = split(path, p, "/"); base = p[n]; sub(/\.mli$/, "", base)
      stack[0] = toupper(substr(base, 1, 1)) substr(base, 2); depth = 0
    }
    match($0, /^ *module (type )?[A-Z][A-Za-z0-9_]*/) && /sig *$/ {
      ind = RSTART; while (substr($0, ind, 1) == " ") ind++
      name = $0; sub(/^ *module (type )?/, "", name); sub(/[^A-Za-z0-9_].*/, "", name)
      depth++; stack[depth] = stack[depth - 1] "." name; indent[depth] = ind
      next
    }
    depth > 0 && /^ *end *$/ {
      ind = 1; while (substr($0, ind, 1) == " ") ind++
      if (ind == indent[depth]) depth--
      next
    }
    match($0, /^ *val [a-z_][A-Za-z0-9_'"'"']*/) {
      v = substr($0, RSTART, RLENGTH); sub(/^ *val /, "", v)
      print path, stack[depth], v
    }' "$mli"
done | while read -r path modname value; do
  own=${path%.mli}
  if ! grep -rlw --include='*.ml' --include='*.mli' -e "$value" \
      lib bin bench examples | grep -qv -e "^$own\.ml\$" -e "^$own\.mli\$"; then
    echo "$modname $value" >> "$hits"
  fi
done

if [ "${1:-}" = "--all" ]; then
  cat "$hits"
  exit 0
fi

missing=$(awk 'NR == FNR { if (NF && $1 !~ /^#/) ok[$1 " " $2] = 1; next }
               !(($1 " " $2) in ok)' "$allow" "$hits")
if [ -n "$missing" ]; then
  echo "uncalled_exports: exported values with no caller outside their module:" >&2
  echo "$missing" >&2
  echo "delete them, drop them from the .mli, or allowlist a test oracle or hook in $allow" >&2
  exit 1
fi
stale=$(awk 'NR == FNR { hit[$1 " " $2] = 1; next }
             NF && $1 !~ /^#/ && !(($1 " " $2) in hit) { print $1, $2 }' "$hits" "$allow")
if [ -n "$stale" ]; then
  echo "uncalled_exports: allowlisted values that are gone or now have a caller:" >&2
  echo "$stale" >&2
  exit 1
fi
echo "uncalled_exports: $(wc -l < "$hits") hits, all allowlisted"
