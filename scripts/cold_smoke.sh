#!/bin/sh
# Cold-path smoke test: pack auction:30000 into a .xqdb, then require that a
# fresh `xqp query -f store.xqdb --json Q` answers every workload text
# (Q1-Q6, C1-C7) exactly as the same query over the XML does — engine
# included, timing and cache status aside. Then flip one structure bit of
# the store and require `query` (JSON and plain) and `stats` to refuse it:
# a non-zero exit and a "corrupt" message, never an uncaught exception and
# never an answer.
# Exits non-zero on any mismatch.
set -e
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

dune build bin/xqp.exe
xqp=_build/default/bin/xqp.exe

"$xqp" generate auction:30000 -o "$dir/a.xml" > /dev/null
"$xqp" index -f "$dir/a.xml" -o "$dir/a.xqdb" > /dev/null

# drop the fields that legitimately differ between two runs
normalize() {
  sed -e 's/,"time_ms":[0-9.e+-]*//' -e 's/,"cache":"[a-z-]*"//'
}

n=0
while IFS= read -r q; do
  n=$((n + 1))
  "$xqp" query -f "$dir/a.xml" --json "$q" | normalize > "$dir/xml.$n.json"
  "$xqp" query -f "$dir/a.xqdb" --json "$q" | normalize > "$dir/store.$n.json"
  grep -q '"status":"ok"' "$dir/xml.$n.json" || {
    echo "cold-smoke: $q failed over XML"; cat "$dir/xml.$n.json"; exit 1; }
  cmp -s "$dir/xml.$n.json" "$dir/store.$n.json" || {
    echo "cold-smoke: $q answers differ between .xml and .xqdb"
    head -c 400 "$dir/xml.$n.json"; echo; head -c 400 "$dir/store.$n.json"; echo; exit 1; }
done <<'EOF'
/site/regions/africa/item/name
//item/name
/site/people/person[address/city][profile]/name
//open_auction[bidder/increase > 20]/current
//description//listitem//text
//person[profile/@income > 60000]/name
//person
//person/name
/site/people/person/name
/site/people/person[address]/name
/site/people/person[address/city][profile/@income]/name
//open_auction[bidder/date][itemref]/current
//regions//item[location][quantity]/description//text
EOF
[ "$n" -eq 13 ] || { echo "cold-smoke: ran $n of 13 texts"; exit 1; }

# flip bit 2 of the 40th structure byte (the section starts right after
# the 120-byte header)
off=160
byte=$(od -An -tu1 -j "$off" -N1 "$dir/a.xqdb" | tr -d ' ')
cp "$dir/a.xqdb" "$dir/flipped.xqdb"
printf "\\$(printf '%03o' $((byte ^ 4)))" |
  dd of="$dir/flipped.xqdb" bs=1 seek="$off" conv=notrunc 2> /dev/null
cmp -s "$dir/a.xqdb" "$dir/flipped.xqdb" && { echo "cold-smoke: bit flip did not land"; exit 1; }

for mode in query-json query stats; do
  case $mode in
    query-json) set -- query --json "//person" ;;
    query) set -- query "//person" ;;
    stats) set -- stats ;;
  esac
  cmd=$1
  shift
  if "$xqp" "$cmd" -f "$dir/flipped.xqdb" "$@" > "$dir/flip.out" 2>&1; then
    echo "cold-smoke: flipped store answered ($mode)"; cat "$dir/flip.out"; exit 1
  fi
  if grep -q -e 'uncaught exception' -e '"status":"ok"' "$dir/flip.out"; then
    echo "cold-smoke: flipped store not refused cleanly ($mode)"; cat "$dir/flip.out"; exit 1
  fi
  grep -q 'corrupt' "$dir/flip.out" || {
    echo "cold-smoke: no corrupt-store message ($mode)"; cat "$dir/flip.out"; exit 1; }
done

echo "cold-smoke: ok ($n texts identical over .xml and .xqdb; flipped store refused)"
