#!/usr/bin/env bash
# Checks the determinism contract for one group of runs that share a
# reference output: stdout is byte-identical across thread counts, cache
# tiers, shard splits and khaos-evald. CTest runs each group
# as determinism_<group>, with KHAOS_QUICK=1 in its own /tmp directory.
# Exit 0 when every comparison holds, 1 when one fails, 2 on misuse.
set -euo pipefail
U="usage: $0 <build-dir> fuzz|fig6|fig8|fig8_tools|fig9_confound|evald"
[ $# -eq 2 ] && [ -x "$1/khaos-fuzz" ] || { echo "$U" >&2; exit 2; }
B=$(cd "$1" && pwd) G=$2 F8=bench_fig8_precision FC=bench_fig9_confound
export KHAOS_QUICK=1
W=$(mktemp -d /tmp/khaos-det.XXXXXX) D= # A short path, for the socket.
trap 'set +e; [ -z "$D" ] || { kill $D; wait $D; } 2>/dev/null; rm -rf $W' EXIT
cd $W
fail() { echo "determinism $G: FAIL: $* (outputs kept in $W)" >&2; W=; exit 1; }
# run OUT BIN ARGS...: stdout into OUT, stderr into OUT.err; must exit 0.
run() { local O=$1 X=$2; shift 2
  "$B/$X" "$@" > $O 2> $O.err || fail "$X $* exited $?: $(tail -5 $O.err)"; }
# same A B [FIELDS]: A and B are byte-identical (in the awk FIELDS only).
same() { if [ $# -eq 2 ]; then diff $1 $2; else
  diff <(awk "{print $3}" $1) <(awk "{print $3}" $2); fi || fail "$1 != $2"; }
# union DUMP SHARD...: the shards' sorted union is the sorted DUMP.
union() { local R=$1; shift; diff <(sort $R) <(sort "$@") || fail "$* != $R"; }
# shards OUT BIN ARGS...: the --print-cells dump OUT is a --shards 2 union.
shards() { local O=$1; run "$@" --print-cells; shift
  run $O.0 "$@" --shards 2 --shard-index 0
  run $O.1 "$@" --shards 2 --shard-index 1; union $O $O.0 $O.1; }
# count N REGEX FILE: exactly N lines of FILE match.
count() { [ "$(grep -cE "$2" $3)" = $1 ] || fail "$3: want $1 '$2' lines"; }
# disk BIN N: cold and warm --cache-dir runs print t8, N [disk] lines each.
disk() { run cold $1 --threads 8 --cache-dir dc; same t8 cold
  run warm $1 --threads 8 --cache-dir dc; same cold warm
  count $2 '^\[disk\] disk-hits=0 disk-misses=[1-9]' cold.err
  count $2 '^\[disk\] disk-hits=[1-9][0-9]* disk-misses=0 ' warm.err; }
case $G in
fuzz) # Verdicts and repros; khaos-fuzz exits nonzero on any divergence.
  for T in 1 8; do mkdir r$T; run t$T khaos-fuzz --seed 0xc1 --budget 12 \
    --threads $T --repro-dir r$T; done
  run t8b khaos-fuzz --seed 0xc1 --budget 12 --threads 8
  same t1 t8; same t8 t8b; diff -r r1 r8 || fail "repro dirs differ"
  # The four newest passes alone, so a bug cannot hide behind the roster.
  for T in 1 8; do run new$T khaos-fuzz --seed 0xc2 --budget 10 --threads $T \
    --cross-vm --modes MBA,StrEnc,IndCall,SplitBB; done; same new1 new8 ;;
fig6) # The warm run is the check on the BaselineRun codec.
  run t1 bench_fig6_overhead --threads 1; run t8 bench_fig6_overhead --threads 8
  same t1 t8; disk bench_fig6_overhead 2 ;;
fig8)
  run t1 $F8 --threads 1; run t8 $F8 --threads 8; same t1 t8
  run nc $F8 --threads 8 --no-cache; same t8 nc
  shards cells $F8 --threads 8
  run ncc $F8 --threads 8 --no-cache --print-cells; union cells ncc
  # A mode that dropped out of allObfuscationModes() would pass vacuously.
  for M in Sub Bog Fla-10 MBA StrEnc IndCall SplitBB Fission Fusion; do
    grep -q " $M " cells || fail "mode $M missing from fig8 cells"; done
  run bounded $F8 --threads 8 --store-max-bytes 2000000; same t8 bounded
  count 1 'evictions=[1-9]' bounded.err; disk $F8 1 ;;
fig8_tools) # SAFE's subprocess twin: the same (workload, mode, precision).
  for T in SAFE safe-oop safe,SAFE; do
    run $T $F8 --threads 8 --tools $T --print-cells; done
  run oop1 $F8 --threads 1 --no-cache --tools safe-oop --print-cells
  for O in safe-oop oop1 safe,SAFE; do same SAFE $O '$4, $5, $7'; done
  shards new $F8 --threads 8 --tools jtrans,orcas
  ! "$B/$F8" --tools bogus > bogus 2>&1 || fail "--tools bogus accepted" ;;
fig9_confound) # The default axis, then crossed with the compiler style.
  for A in "" "--compiler-style clang,gcc"; do
    run t1 $FC --threads 1 $A; run t8 $FC --threads 8 $A; same t1 t8
    run nc $FC --threads 8 --no-cache $A; same t8 nc; done
  grep -q "O2+gcc" t8 && grep -q "style-delta@O2" t8 || fail "no style rows"
  run SAFE $FC --threads 8 --tools SAFE --print-cells
  run safe-oop $FC --threads 8 --tools safe-oop --print-cells
  same SAFE safe-oop '$4, $5, $6, $8, $9'
  shards levels $FC --threads 8 --baseline-opt O0,O1,O2
  shards styles $FC --threads 8 --compiler-style clang,gcc ;;
evald)
  S=$W/evald.sock; "$B/khaos-evald" --socket $S 2> evald.err & D=$!
  for _ in $(seq 100); do [ -S $S ] && break; sleep 0.1; done
  # A v2 peer would alias clang/gcc keys: the frame is refused by name.
  python3 -c 'import socket, struct, sys; s = socket.socket(socket.AF_UNIX)
f = bytes([0x31, 0x56, 0x45, 0x4B, 2, 0, 1, 1])  # KEV1 v2 request Ping
s.connect(sys.argv[1]); s.sendall(struct.pack("<I", len(f)) + f)
assert b"unsupported protocol version 2" in s.recv(4096)' $S || fail "v2 frame"
  # Four concurrent thin clients; all the work runs daemon-side.
  run cells $F8 --threads 8 --print-cells
  for I in 0 1 2 3; do run s$I $F8 --threads 2 --connect $S --shards 4 \
    --shard-index $I --print-cells & P[I]=$!; done
  for I in 0 1 2 3; do wait ${P[I]} || fail "client $I: $(cat evald.err)"
    count 1 '^\[cache\] on hits=0 misses=0 ' s$I.err; done
  union cells s0 s1 s2 s3
  run fc $FC --threads 8 --print-cells; run f10 bench_fig10_escape --threads 8
  run fcr $FC --threads 2 --connect $S --print-cells; union fc fcr
  run f10r bench_fig10_escape --threads 2 --connect $S; same f10 f10r
  kill -TERM $D; wait $D || fail "khaos-evald exited $?"; D=
  count 1 'listening on' evald.err ;;
*) echo "$U" >&2; exit 2 ;;
esac
echo "determinism $G: ok"
