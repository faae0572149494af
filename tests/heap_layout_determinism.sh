#!/bin/sh
# Heap-layout determinism check for the pinpoint CLI.
#
#   heap_layout_determinism.sh PINPOINT WORKDIR
#
# The subject's main is defined first and calls bug_0 ... bug_59, which are
# defined after it; each bug_k is a use-after-free preceded by a
# 40-statement filler function. The bottom-up order, and so the report
# order, must come from the program text: the check runs
# --checker=uaf --stats --degradation-log at --jobs=1 and --jobs=4, with
# GLIBC_TUNABLES unset and with glibc's mmap threshold at 4096 and at
# 33554432 bytes (which moves the IR between mmap'd and brk memory), and
# requires all six outputs to be byte-identical once the work and timing
# stats lines are dropped, with the reports in definition order. Where a
# sanitizer replaces malloc the tunables change nothing and the check
# still passes.
set -eu

PINPOINT=$1
WORK=$2
mkdir -p "$WORK"
SRC=$WORK/forward_calls.mc

{
  echo 'int main() {'
  i=0
  while [ $i -lt 60 ]; do
    echo "  bug_$i();"
    i=$((i + 1))
  done
  echo '  return 0;'
  echo '}'
  i=0
  while [ $i -lt 60 ]; do
    echo "int filler_$i(int a) {"
    j=0
    while [ $j -lt 40 ]; do
      echo "  a = a + $j;"
      j=$((j + 1))
    done
    echo '  return a;'
    echo '}'
    echo "int bug_$i() {"
    echo '  int *p = malloc();'
    echo '  free(p);'
    echo '  int v = *p;'
    echo '  return v;'
    echo '}'
    i=$((i + 1))
  done
} > "$SRC"

VOLATILE='^\[(pipeline|phase|exprs|cache|lifecycle|demand|sched)\]'
run() { # OUT JOBS [TUNABLES]
  out=$1
  jobs=$2
  if [ $# -ge 3 ]; then
    GLIBC_TUNABLES=$3 "$PINPOINT" --checker=uaf --stats --degradation-log \
      --jobs="$jobs" "$SRC" > "$out.raw"
  else
    env -u GLIBC_TUNABLES "$PINPOINT" --checker=uaf --stats \
      --degradation-log --jobs="$jobs" "$SRC" > "$out.raw"
  fi
  grep -vE "$VOLATILE" "$out.raw" > "$out"
}

for jobs in 1 4; do
  run "$WORK/unset.$jobs" $jobs
  run "$WORK/small.$jobs" $jobs glibc.malloc.mmap_threshold=4096
  run "$WORK/large.$jobs" $jobs glibc.malloc.mmap_threshold=33554432
done

status=0
for out in unset.4 small.1 small.4 large.1 large.4; do
  if ! cmp -s "$WORK/unset.1" "$WORK/$out"; then
    echo "output differs: unset.1 vs $out"
    diff "$WORK/unset.1" "$WORK/$out" | head -20
    status=1
  fi
done

# Definition order: bug_0, bug_1, ..., bug_59.
sed -n 's/^use-after-free: source \(bug_[0-9]*\):.*/\1/p' \
  "$WORK/unset.1" > "$WORK/order"
i=0
: > "$WORK/expected"
while [ $i -lt 60 ]; do
  echo "bug_$i" >> "$WORK/expected"
  i=$((i + 1))
done
if ! cmp -s "$WORK/expected" "$WORK/order"; then
  echo "reports are not in definition order:"
  tr '\n' ' ' < "$WORK/order"
  echo
  status=1
fi
exit $status
