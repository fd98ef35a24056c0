#!/bin/sh
# End-to-end test of the pcq CLI: compress -> stats -> query -> convert ->
# temporal round trip, plus (when given) a pcq_serve smoke run and an
# admin-endpoint scrape via pcq_top.
# Usage: cli_test.sh <pcq-binary> [pcq_serve-binary] [pcq_top-binary]
set -e
PCQ="$1"
SERVE="$2"
TOP="$3"
TMP=$(mktemp -d)
# Background servers are recorded in BG_PIDS; a failing check exits through
# this trap, which stops any still running before removing their files.
BG_PIDS=""
cleanup() {
  for pid in $BG_PIDS; do
    kill "$pid" 2> /dev/null && wait "$pid" 2> /dev/null
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

printf "# comment line\n0 1\n1 2\n2 0\n0 2\n" > "$TMP/g.txt"

"$PCQ" compress "$TMP/g.txt" --out "$TMP/g.csr" | grep -q "compressed 3 nodes / 4 edges"
"$PCQ" stats "$TMP/g.csr" | grep -q "edges        4"
"$PCQ" query "$TMP/g.csr" --edge 0,1 | grep -q "present"
"$PCQ" query "$TMP/g.csr" --edge 1,0 | grep -q "absent"
"$PCQ" query "$TMP/g.csr" --node 0 | grep -q "neighbors(0) \[2\]: 1 2"

# Binary conversion must feed the same pipeline bit-for-bit.
"$PCQ" convert "$TMP/g.txt" --out "$TMP/g.bin"
"$PCQ" compress "$TMP/g.bin" --out "$TMP/g2.csr" > /dev/null
cmp "$TMP/g.csr" "$TMP/g2.csr"

# Packed bytes must not depend on the thread count. The graph above is
# below every chunking threshold, so these inputs are seeded ~200k-edge and
# ~200k-event lists (skewed sources give long rows), large enough that
# every parallel phase, the sort included, splits into many chunks.
awk 'BEGIN { srand(7); for (i = 0; i < 200000; ++i)
  printf "%d %d\n", int(50000 * rand() * rand()), int(50000 * rand()) }' \
    > "$TMP/big.txt"
awk 'BEGIN { srand(9); for (i = 0; i < 200000; ++i)
  printf "%d %d %d\n", int(20000 * rand() * rand()), int(20000 * rand()),
         int(64 * rand()) }' > "$TMP/big_t.txt"
for threads in 1 3 64; do
  "$PCQ" compress "$TMP/big.txt" --out "$TMP/big$threads.csr" \
      --threads "$threads" > /dev/null
  "$PCQ" tcompress "$TMP/big_t.txt" --out "$TMP/big$threads.tcsr" \
      --threads "$threads" > /dev/null
done
for threads in 3 64; do
  cmp "$TMP/big1.csr" "$TMP/big$threads.csr"
  cmp "$TMP/big1.tcsr" "$TMP/big$threads.tcsr"
done

# Relabeled compression still answers (ids are renumbered, so only check
# that it runs and reports the same counts).
"$PCQ" compress "$TMP/g.txt" --out "$TMP/g3.csr" --relabel | grep -q "compressed 3 nodes / 4 edges"

# Temporal: edge (0,1) toggles on at frame 0, off at frame 2.
printf "0 1 0\n1 2 1\n0 1 2\n" > "$TMP/t.txt"
"$PCQ" tcompress "$TMP/t.txt" --out "$TMP/t.tcsr" | grep -q "3 events over 3 frames"
"$PCQ" tquery "$TMP/t.tcsr" --edge 0,1 --frame 1 | grep -q "frame 1: active"
"$PCQ" tquery "$TMP/t.tcsr" --edge 0,1 --frame 2 | grep -q "frame 2: inactive"
"$PCQ" tquery "$TMP/t.tcsr" --node 1 --frame 1 | grep -q "neighbors(1) at frame 1 \[1\]: 2"
"$PCQ" tquery "$TMP/t.tcsr" --snapshot --frame 1 --threads 4 \
    --trace "$TMP/snap.json" | grep -q "snapshot at frame 1"
grep -q "tcsr.differential_scan" "$TMP/snap.json"

"$PCQ" compare "$TMP/g.txt" | grep -q "bit-packed CSR"
"$PCQ" tcompare "$TMP/t.txt" | grep -q "differential TCSR"

# Structural validation: freshly written artifacts must pass the pcq::check
# invariant scan.
"$PCQ" check "$TMP/g.csr" | grep -q "check OK"
"$PCQ" check "$TMP/t.tcsr" --threads 2 | grep -q "check OK"

# Zero-copy mapped serving: --mmap must answer every query identically to
# the buffered path, and check must pass over the mapped views.
"$PCQ" query "$TMP/g.csr" --edge 0,1 --mmap | grep -q "present"
"$PCQ" query "$TMP/g.csr" --node 0 --mmap | grep -q "neighbors(0) \[2\]: 1 2"
"$PCQ" check "$TMP/g.csr" --mmap | grep -q "check OK"
"$PCQ" check "$TMP/g.csr" --mmap | grep -q "(mapped)"
"$PCQ" tquery "$TMP/t.tcsr" --edge 0,1 --frame 1 --mmap | grep -q "frame 1: active"
"$PCQ" tquery "$TMP/t.tcsr" --node 1 --frame 1 --mmap | grep -q "neighbors(1) at frame 1 \[1\]: 2"
"$PCQ" check "$TMP/t.tcsr" --mmap | grep -q "check OK"

# --- Negative cases: corrupt inputs are refused with a typed IoError -------
# (exit 3, "error: ..." on stderr), never a crash/abort. `set -e` is
# suspended around each expected failure via the if-negation idiom.
expect_exit() {
  # expect_exit <status> <description> <cmd...>: must exit <status> and
  # print "error:".
  want="$1"; desc="$2"; shift 2
  if "$@" > "$TMP/neg.out" 2>&1; then
    echo "NEGATIVE CASE FAILED ($desc): command succeeded"; exit 1
  else
    status=$?
    if [ "$status" -ne "$want" ]; then
      echo "NEGATIVE CASE FAILED ($desc): exit $status, want $want"
      cat "$TMP/neg.out"; exit 1
    fi
  fi
  grep -q "error:" "$TMP/neg.out" || {
    echo "NEGATIVE CASE FAILED ($desc): no error message"; exit 1; }
}
expect_ioerror() { expect_exit 3 "$@"; }

# Missing inputs.
expect_ioerror "compress missing file"  "$PCQ" compress "$TMP/nope.txt"
expect_ioerror "tcompress missing file" "$PCQ" tcompress "$TMP/nope.txt"
expect_ioerror "stats missing csr"      "$PCQ" stats "$TMP/nope.csr"

# Garbage bytes where a compressed artifact is expected.
printf "garbage, not a csr" > "$TMP/bad.csr"
expect_ioerror "query garbage csr"  "$PCQ" query "$TMP/bad.csr" --node 0
expect_ioerror "stats garbage csr"  "$PCQ" stats "$TMP/bad.csr"
expect_ioerror "check garbage csr"  "$PCQ" check "$TMP/bad.csr"
printf "garbage, not a tcsr" > "$TMP/bad.tcsr"
expect_ioerror "tquery garbage tcsr" "$PCQ" tquery "$TMP/bad.tcsr" --edge 0,1 --frame 0
expect_ioerror "check garbage tcsr"  "$PCQ" check "$TMP/bad.tcsr"

# Truncated artifacts: mid-header and mid-payload cuts of real files.
head -c 30 "$TMP/g.csr" > "$TMP/trunc-header.csr"
expect_ioerror "query truncated header" "$PCQ" query "$TMP/trunc-header.csr" --node 0
head -c 60 "$TMP/g.csr" > "$TMP/trunc-payload.csr"
expect_ioerror "query truncated payload" "$PCQ" query "$TMP/trunc-payload.csr" --node 0
head -c 40 "$TMP/t.tcsr" > "$TMP/trunc.tcsr"
expect_ioerror "tquery truncated tcsr" "$PCQ" tquery "$TMP/trunc.tcsr" --edge 0,1 --frame 0

# The mapped load path must refuse the same corrupted fixtures with the
# same typed IoError (exit 3) — a bad file is rejected identically whether
# it is read or mapped.
expect_ioerror "mmap query garbage csr"      "$PCQ" query "$TMP/bad.csr" --node 0 --mmap
expect_ioerror "mmap check garbage csr"      "$PCQ" check "$TMP/bad.csr" --mmap
expect_ioerror "mmap query truncated header" "$PCQ" query "$TMP/trunc-header.csr" --node 0 --mmap
expect_ioerror "mmap query truncated payload" "$PCQ" query "$TMP/trunc-payload.csr" --node 0 --mmap
expect_ioerror "mmap tquery garbage tcsr"    "$PCQ" tquery "$TMP/bad.tcsr" --edge 0,1 --frame 0 --mmap
expect_ioerror "mmap check garbage tcsr"     "$PCQ" check "$TMP/bad.tcsr" --mmap
expect_ioerror "mmap tquery truncated tcsr"  "$PCQ" tquery "$TMP/trunc.tcsr" --edge 0,1 --frame 0 --mmap

# Binary edge lists: bad magic and a truncated payload (the header's edge
# count promises more than the file holds).
printf "NOTMAGIC" > "$TMP/bad.bin"
expect_ioerror "compress bad bin magic" "$PCQ" compress "$TMP/bad.bin" --out "$TMP/x.csr"
head -c 20 "$TMP/g.bin" > "$TMP/trunc.bin"
expect_ioerror "compress truncated bin" "$PCQ" compress "$TMP/trunc.bin" --out "$TMP/x.csr"

# Observability: --trace writes non-empty, valid Chrome trace JSON and
# --stats prints the per-phase table. Oversubscribed --threads forces the
# multi-chunk (instrumented) code paths even on a single-core host.
"$PCQ" compress "$TMP/g.txt" --out "$TMP/g4.csr" --threads 4 \
    --trace "$TMP/build.json" --stats > "$TMP/compress.out"
grep -q "wrote trace" "$TMP/compress.out"
grep -q "spans on" "$TMP/compress.out"
test -s "$TMP/build.json"
grep -q '"traceEvents"' "$TMP/build.json"
# Schema check with whatever JSON validator the host has; fall back to the
# byte checks above when neither python3 nor jq is available.
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$TMP/build.json" > /dev/null
elif command -v jq > /dev/null 2>&1; then
  jq . "$TMP/build.json" > /dev/null
fi

# Serving layer: line protocol, temporal queries, demo workload, and the
# typed-IoError path for a corrupt artifact (refused, not aborted).
if [ -n "$SERVE" ]; then
  printf "degree 0\ne 0 1\ne 1 0\nn 0\nquit\n" | "$SERVE" "$TMP/g.csr" > "$TMP/serve.out"
  grep -q "degree(0) = 2" "$TMP/serve.out"
  grep -q "edge (0, 1): present" "$TMP/serve.out"
  grep -q "edge (1, 0): absent" "$TMP/serve.out"
  grep -q "neighbors(0) \[2\]: 1 2" "$TMP/serve.out"
  printf "te 0 1 1\nte 0 1 2\nquit\n" | "$SERVE" "$TMP/g.csr" --tcsr "$TMP/t.tcsr" > "$TMP/serve_t.out"
  grep -q "edge (0, 1): present" "$TMP/serve_t.out"
  grep -q "edge (0, 1): absent" "$TMP/serve_t.out"
  "$SERVE" "$TMP/g.csr" --demo 2000 --shards 2 | grep -q "demo done"
  # Mapped serving: same answers straight off the mapping, with warmup and
  # the pre-serve validation gate; a corrupt file is refused identically.
  printf "degree 0\nn 0\nquit\n" | "$SERVE" "$TMP/g.csr" --tcsr "$TMP/t.tcsr" \
      --mmap --warm --validate > "$TMP/serve_m.out"
  grep -q "loaded in .* (mapped)" "$TMP/serve_m.out"
  grep -q "warmed" "$TMP/serve_m.out"
  grep -q "validation passed" "$TMP/serve_m.out"
  grep -q "degree(0) = 2" "$TMP/serve_m.out"
  grep -q "neighbors(0) \[2\]: 1 2" "$TMP/serve_m.out"
  # STATS dumps the service snapshot plus the pcq::obs registry; TRACE
  # exports the span flight-recorder as Chrome trace JSON.
  printf "degree 0\nSTATS\nTRACE %s\nquit\n" "$TMP/serve_trace.json" \
      | "$SERVE" "$TMP/g.csr" > "$TMP/serve_s.out"
  grep -q -- "-- registry --" "$TMP/serve_s.out"
  grep -q "svc.flush" "$TMP/serve_s.out"
  grep -q "wrote trace" "$TMP/serve_s.out"
  test -s "$TMP/serve_trace.json"
  grep -q '"traceEvents"' "$TMP/serve_trace.json"
  if command -v python3 > /dev/null 2>&1; then
    python3 -m json.tool "$TMP/serve_trace.json" > /dev/null
  fi
  printf "garbage" > "$TMP/bad.csr"
  if "$SERVE" "$TMP/bad.csr" < /dev/null > /dev/null 2>&1; then
    echo "corrupt csr was not refused"; exit 1
  fi
  if "$SERVE" "$TMP/bad.csr" --mmap < /dev/null > /dev/null 2>&1; then
    echo "corrupt csr was not refused under --mmap"; exit 1
  fi
  # A malformed HOST:PORT is a usage error (exit 2) naming the target, not
  # an abort or a port silently taken modulo 65536.
  for target in 127.0.0.1:abc 127.0.0.1:70000 127.0.0.1:0; do
    expect_exit 2 "connect $target" "$SERVE" --connect "$target" < /dev/null
    grep -q "$target" "$TMP/neg.out"
    [ -z "$TOP" ] || expect_exit 2 "pcq_top $target" "$TOP" "$target" --once
  done

  # TCP serving: --listen 0 binds an ephemeral port and prints it; the
  # --connect client drives the same line protocol over the binary frame
  # protocol; the shutdown control frame triggers a graceful drain (every
  # in-flight answer flushed, "drain complete" printed, exit 0).
  # Each server log is created before its server starts, so the port poll
  # below never races the background redirect (a failed read of a missing
  # file would end the script under `set -e`).
  : > "$TMP/listen.out"
  "$SERVE" "$TMP/g.csr" --tcsr "$TMP/t.tcsr" --listen 0 > "$TMP/listen.out" 2>&1 &
  LISTEN_PID=$!
  BG_PIDS="$BG_PIDS $LISTEN_PID"
  PORT=""
  i=0
  while [ $i -lt 50 ]; do
    PORT=$(sed -n 's/^listening on 127.0.0.1:\([0-9][0-9]*\)$/\1/p' "$TMP/listen.out")
    [ -n "$PORT" ] && break
    i=$((i + 1)); sleep 0.1
  done
  [ -n "$PORT" ] || { echo "pcq_serve --listen never printed its port"; exit 1; }
  # One script through --connect and through stdin mode over the same
  # files: both modes share one line grammar, so the answers must match.
  printf "degree 0\nn 0\ne 0 1\ne 1 0\nte 0 1 1\nte 0 1 2\ntn 1 1\nj 0 2 0\nbogus 1\n" \
      > "$TMP/script.txt"
  { cat "$TMP/script.txt"; echo shutdown; } \
      | "$SERVE" --connect "127.0.0.1:$PORT" > "$TMP/connect.out"
  grep -q "degree(0) = 2" "$TMP/connect.out"
  grep -q "edge (0, 1): present" "$TMP/connect.out"
  grep -q "edge (1, 0): absent" "$TMP/connect.out"
  grep -q "neighbors(0) \[2\]: 1 2" "$TMP/connect.out"
  grep -q "journey 0 -> 2: arrives frame 1" "$TMP/connect.out"
  grep -q "unknown query 'bogus 1'" "$TMP/connect.out"
  grep -q "shutdown acknowledged" "$TMP/connect.out"
  wait "$LISTEN_PID" || { echo "pcq_serve --listen exited nonzero"; exit 1; }
  grep -q "drain complete" "$TMP/listen.out"
  "$SERVE" "$TMP/g.csr" --tcsr "$TMP/t.tcsr" < "$TMP/script.txt" \
      | sed '1,/^serving /d; /^-- service metrics --$/,$d' > "$TMP/stdin.ans"
  grep -v "^shutdown acknowledged" "$TMP/connect.out" > "$TMP/connect.ans"
  diff "$TMP/stdin.ans" "$TMP/connect.ans" || {
    echo "stdin and --connect answers differ"; exit 1; }

  # Admin telemetry plane: a second --listen run with --admin 0 prints the
  # admin port; pcq_top --scrape drives every route. --slow-us 1 plus an
  # injected kernel delay guarantees the slow-query log fills, and the
  # reporter writes a JSONL series.
  if [ -n "$TOP" ]; then
    : > "$TMP/admin.out"
    "$SERVE" "$TMP/g.csr" --listen 0 --admin 0 --slow-us 1 \
        --inject-delay-us 500 --report "$TMP/report.jsonl" \
        --report-interval-ms 100 > "$TMP/admin.out" 2>&1 &
    LISTEN_PID=$!
    BG_PIDS="$BG_PIDS $LISTEN_PID"
    PORT=""; ADMIN_PORT=""
    i=0
    while [ $i -lt 50 ]; do
      PORT=$(sed -n 's/^listening on 127.0.0.1:\([0-9][0-9]*\)$/\1/p' "$TMP/admin.out")
      ADMIN_PORT=$(sed -n 's/^admin on 127.0.0.1:\([0-9][0-9]*\)$/\1/p' "$TMP/admin.out")
      [ -n "$PORT" ] && [ -n "$ADMIN_PORT" ] && break
      i=$((i + 1)); sleep 0.1
    done
    [ -n "$ADMIN_PORT" ] || { echo "pcq_serve --admin never printed its port"; exit 1; }
    "$TOP" "127.0.0.1:$ADMIN_PORT" --scrape /healthz | grep -q "ok"
    printf "degree 0\ne 0 1\nn 0\nquit\n" | "$SERVE" --connect "127.0.0.1:$PORT" > /dev/null
    "$TOP" "127.0.0.1:$ADMIN_PORT" --scrape /metrics > "$TMP/metrics.txt"
    grep -q "# TYPE svc_flush_size counter" "$TMP/metrics.txt"
    "$TOP" "127.0.0.1:$ADMIN_PORT" --scrape /metrics.json > "$TMP/metrics.json"
    grep -q '"svc.completed":3' "$TMP/metrics.json"
    "$TOP" "127.0.0.1:$ADMIN_PORT" --scrape /slow > "$TMP/slow.json"
    grep -q '"trace_id":' "$TMP/slow.json"
    "$TOP" "127.0.0.1:$ADMIN_PORT" --scrape /trace > "$TMP/admin_trace.json"
    grep -q '"traceEvents"' "$TMP/admin_trace.json"
    "$TOP" "127.0.0.1:$ADMIN_PORT" --once | grep -q "pcq_top"
    if command -v python3 > /dev/null 2>&1; then
      python3 -m json.tool "$TMP/metrics.json" > /dev/null
      python3 -m json.tool "$TMP/slow.json" > /dev/null
      python3 -m json.tool "$TMP/admin_trace.json" > /dev/null
    fi
    printf "shutdown\n" | "$SERVE" --connect "127.0.0.1:$PORT" > /dev/null
    wait "$LISTEN_PID" || { echo "admin --listen exited nonzero"; exit 1; }
    grep -q "drain complete" "$TMP/admin.out"
    test -s "$TMP/report.jsonl"
    if command -v python3 > /dev/null 2>&1; then
      python3 -c 'import json,sys
for line in open(sys.argv[1]):
    json.loads(line)' "$TMP/report.jsonl"
    fi
  fi

  # SIGINT takes the same graceful-drain path.
  : > "$TMP/listen2.out"
  "$SERVE" "$TMP/g.csr" --listen 0 > "$TMP/listen2.out" 2>&1 &
  LISTEN_PID=$!
  BG_PIDS="$BG_PIDS $LISTEN_PID"
  PORT=""
  i=0
  while [ $i -lt 50 ]; do
    PORT=$(sed -n 's/^listening on 127.0.0.1:\([0-9][0-9]*\)$/\1/p' "$TMP/listen2.out")
    [ -n "$PORT" ] && break
    i=$((i + 1)); sleep 0.1
  done
  [ -n "$PORT" ] || { echo "second --listen never printed its port"; exit 1; }
  printf "degree 1\nquit\n" | "$SERVE" --connect "127.0.0.1:$PORT" > /dev/null
  kill -INT "$LISTEN_PID"
  wait "$LISTEN_PID" || { echo "SIGINT drain exited nonzero"; exit 1; }
  grep -q "drain complete" "$TMP/listen2.out"
fi

echo CLI_OK
