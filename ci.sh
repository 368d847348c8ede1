#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in the order that fails
# fastest. Run from the repo root. Works fully offline (the workspace has
# no external dependencies; Cargo.lock is committed).
set -euo pipefail

# Runs one gate step, reporting its wall-clock time even when it fails.
step() {
  local name=$1
  shift
  local start=$SECONDS
  echo "--- ${name}"
  "$@"
  echo "--- ${name}: ok ($((SECONDS - start))s)"
}

# Snapshot of the temp dir before anything runs: the persistence suites
# create database files under $TMPDIR and must remove every one of them.
tmp_snapshot() {
  ls "${TMPDIR:-/tmp}" 2>/dev/null | grep '^cdb_' | sort || true
}
tmp_before=$(tmp_snapshot)

step build cargo build --release
step test cargo test -q --workspace
# The durability suites run as part of the workspace tests, but a broken
# lifecycle should fail loudly under its own name, not inside a wall of
# workspace output.
step persistence cargo test -q --test persistence
step reopen cargo test -q --test reopen
step fault-injection cargo test -q --test fault_injection
step snapshot-isolation cargo test -q --test snapshot_isolation
step sql-equivalence cargo test -q --test sql_equivalence
# The repository benchmark's smoke tests: every workload at tiny sizes, each
# answer checked against the LP oracle. The benchmark is its own package,
# so the workspace tests above do not build it.
step perfbench cargo test --release --offline --manifest-path perfbench/Cargo.toml

# End-to-end health check: build a small database with the shell, then
# verify every page checksum through `cdb fsck` (read-only and repair
# modes must both report a clean file).
fsck_smoke() {
  local f="${TMPDIR:-/tmp}/cdb_ci_fsck_$$.db"
  rm -f "$f"
  printf 'open %s\ncreate parcels 2\ninsert parcels y >= 0 && y <= 2 && x >= 0 && x + y <= 4\nindex parcels 4\nsave\nquit\n' "$f" \
    | ./target/release/cdb >/dev/null
  ./target/release/cdb fsck "$f" | grep -q 'fsck: ok'
  ./target/release/cdb fsck "$f" --rebuild-indexes | grep -q 'fsck: ok'
  rm -f "$f"
}
step fsck fsck_smoke

# Wire-protocol smoke: serve a file on an ephemeral port, drive a client
# workload over TCP, ask for a graceful shutdown, then verify the served
# file's checksums offline.
server_smoke() {
  local f="${TMPDIR:-/tmp}/cdb_ci_server_$$.db"
  local log="${TMPDIR:-/tmp}/cdb_ci_server_$$.log"
  rm -f "$f" "$f.wal" "$log"
  ./target/release/cdb-server "$f" --checkpoint-every 8 >"$log" &
  local pid=$!
  local addr=""
  for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$log")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "ci: cdb-server never announced its address" >&2
    kill -9 "$pid" 2>/dev/null || true
    rm -f "$f" "$f.wal" "$log"
    return 1
  fi
  {
    printf 'create parcels 2\n'
    printf 'insert parcels y >= 0 && y <= 2 && x >= 0 && x + y <= 4\n'
    printf 'insert parcels y >= x && y <= x + 1 && x >= 10\n'
    printf 'index parcels 4\n'
    printf 'exist parcels y >= 0.3x - 5\n'
    printf 'explain exist parcels y >= 0.3x - 5\n'
    printf 'stats\n'
    printf 'save\n'
    printf 'shutdown\n'
  } | TERM= ./target/release/cdb-client "$addr" >/dev/null
  # Graceful shutdown must be a clean exit, not a timeout or a crash.
  local code=0
  wait "$pid" || code=$?
  if [ "$code" -ne 0 ]; then
    echo "ci: cdb-server exited with code $code" >&2
    rm -f "$f" "$f.wal" "$log"
    return 1
  fi
  ./target/release/cdb fsck "$f" | grep -q 'fsck: ok'
  rm -f "$f" "$f.wal" "$log"
}
step server server_smoke

# Constraint-SQL smoke: serve a fresh file, run DDL + inserts + SQL
# selects (single-relation, join, projection) and EXPLAIN/EXPLAIN ANALYZE
# through the scripted client shell, assert row counts and plan shapes,
# then shut down gracefully and fsck the file.
sql_smoke() {
  local f="${TMPDIR:-/tmp}/cdb_ci_sql_$$.db"
  local log="${TMPDIR:-/tmp}/cdb_ci_sql_$$.log"
  local out="${TMPDIR:-/tmp}/cdb_ci_sql_$$.out"
  rm -f "$f" "$f.wal" "$log" "$out"
  ./target/release/cdb-server "$f" >"$log" &
  local pid=$!
  local addr=""
  for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$log")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "ci: cdb-server never announced its address" >&2
    kill -9 "$pid" 2>/dev/null || true
    rm -f "$f" "$f.wal" "$log" "$out"
    return 1
  fi
  {
    printf 'create parcels 2\n'
    printf 'insert parcels y >= 0 && y <= 2 && x >= 0 && x + y <= 4\n'
    printf 'insert parcels y >= x && y <= x + 1 && x >= 10\n'
    printf 'insert parcels y >= -1 && y <= 1 && x >= -3 && x <= -1\n'
    printf 'index parcels 4\n'
    printf 'create lots 2\n'
    printf 'insert lots y >= 0 && y <= 1 && x >= 0 && x <= 1\n'
    printf 'sql SELECT * FROM parcels WHERE y >= 0.3x - 5 EXIST\n'
    printf 'sql SELECT * FROM parcels WHERE y <= 2 ALL\n'
    printf 'sql SELECT x FROM parcels JOIN lots WHERE y <= 0.5 EXIST LIMIT 10\n'
    printf 'explain SELECT * FROM parcels WHERE y >= 0.3x - 5 EXIST\n'
    printf 'explain analyze SELECT * FROM parcels WHERE y >= 0.3x - 5 AND x >= 0 EXIST\n'
    printf 'save\n'
    printf 'shutdown\n'
  } | TERM= ./target/release/cdb-client "$addr" >"$out"
  local code=0
  wait "$pid" || code=$?
  if [ "$code" -ne 0 ]; then
    echo "ci: cdb-server exited with code $code" >&2
    rm -f "$f" "$f.wal" "$log" "$out"
    return 1
  fi
  # Row counts: EXIST hits all 3 parcels; ALL(y<=2) keeps the two bounded
  # ones; the join pairs each parcel touching y<=0.5 with the single lot.
  grep -q '3 row(s): id(parcels)' "$out"
  grep -q '2 row(s): id(parcels)' "$out"
  grep -q 'row(s): id(parcels) | id(lots) | region(x)' "$out"
  # EXPLAIN shows the chosen access method; ANALYZE adds observed timings.
  grep -q 'IndexScan parcels' "$out"
  grep -q 'Filter' "$out"
  grep -q 'time: ' "$out"
  ./target/release/cdb fsck "$f" | grep -q 'fsck: ok'
  rm -f "$f" "$f.wal" "$log" "$out"
}
step sql sql_smoke

# Durability smoke: SIGKILL cdb-server under write load before anything
# checkpointed, then reopen. Every acknowledged insert must come back —
# the WAL, not the checkpoint cadence, is what backs the acks.
wal_smoke() {
  local f="${TMPDIR:-/tmp}/cdb_ci_wal_$$.db"
  local log="${TMPDIR:-/tmp}/cdb_ci_wal_$$.log"
  rm -f "$f" "$f.wal" "$log"
  # A checkpoint interval far beyond the workload: only the log is durable.
  ./target/release/cdb-server "$f" --checkpoint-every 100000 >"$log" &
  local pid=$!
  local addr=""
  for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$log")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "ci: cdb-server never announced its address" >&2
    kill -9 "$pid" 2>/dev/null || true
    rm -f "$f" "$f.wal" "$log"
    return 1
  fi
  # 12 acked inserts: the client shell is synchronous, so when it exits,
  # every insert was acknowledged — and acknowledged means fsynced.
  {
    printf 'create parcels 2\n'
    for i in $(seq 1 12); do
      printf 'insert parcels y >= 0 && y <= 2 && x >= %s && x <= %s\n' "$i" "$((i + 3))"
    done
  } | TERM= ./target/release/cdb-client "$addr" >/dev/null
  kill -9 "$pid"
  wait "$pid" 2>/dev/null || true
  # Read-only fsck surfaces the un-replayed log; writable fsck replays it.
  # (Full-read grep, not -q: quitting on first match would SIGPIPE cdb.)
  ./target/release/cdb fsck "$f" | grep 'logged mutations not replayed' >/dev/null
  ./target/release/cdb fsck "$f" --rebuild-indexes \
    | grep 'wal: replayed 13 record(s)' >/dev/null
  # After replay the file is clean and holds all 12 acked inserts.
  ./target/release/cdb fsck "$f" | grep 'fsck: ok' >/dev/null
  printf 'open %s\nstats\nquit\n' "$f" \
    | ./target/release/cdb | grep 'parcels: 2-D, 12 tuples' >/dev/null
  rm -f "$f" "$f.wal" "$log"
}
step wal wal_smoke

# Mixed-workload durability smoke: reader clients stream snapshot queries
# while a writer streams inserts, and the server is SIGKILLed mid-write.
# Reopening must be healthy — WAL replay restores every insert that was
# acknowledged before the kill — and the reader fleet must neither see
# nor cause a torn state. Like every smoke, this opens its own fresh
# listener on its own ephemeral port.
mixed_smoke() {
  local f="${TMPDIR:-/tmp}/cdb_ci_mixed_$$.db"
  local log="${TMPDIR:-/tmp}/cdb_ci_mixed_$$.log"
  rm -f "$f" "$f.wal" "$log"
  ./target/release/cdb-server "$f" --checkpoint-every 100000 >"$log" &
  local pid=$!
  local addr=""
  for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$log")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "ci: cdb-server never announced its address" >&2
    kill -9 "$pid" 2>/dev/null || true
    rm -f "$f" "$f.wal" "$log"
    return 1
  fi
  # Base state, fully acknowledged: the client shell is synchronous, so
  # these 12 inserts are fsynced by the time it exits.
  {
    printf 'create parcels 2\n'
    for i in $(seq 1 12); do
      printf 'insert parcels y >= 0 && y <= 2 && x >= %s && x <= %s\n' "$i" "$((i + 3))"
    done
    printf 'index parcels 4\n'
  } | TERM= ./target/release/cdb-client "$addr" >/dev/null
  # Reader fleet: two clients stream queries against published snapshots
  # while the server dies under them. Bounded scripts, not `while :`: the
  # client shell reports per-command transport errors without exiting, so
  # an unbounded feed would leave orphan loops spinning after the kill.
  local readers=()
  for _ in 1 2; do
    (
      for _ in $(seq 1 2000); do
        printf 'exist parcels y >= 0.3x - 5\n'
      done | TERM= ./target/release/cdb-client "$addr" >/dev/null 2>&1 || true
    ) &
    readers+=($!)
  done
  # Writer stream, killed mid-flight: only its acked prefix is promised.
  (
    for i in $(seq 1 1000); do
      printf 'insert parcels y >= 0 && y <= 2 && x >= %s && x <= %s\n' "$i" "$((i + 3))"
    done | TERM= ./target/release/cdb-client "$addr" >/dev/null 2>&1 || true
  ) &
  local writer=$!
  sleep 0.5
  kill -9 "$pid"
  wait "$pid" 2>/dev/null || true
  # The workload clients drain their remaining script against the dead
  # address (fast transport errors) and exit on their own.
  wait "$writer" "${readers[@]}" 2>/dev/null || true
  # Writable fsck replays the log; the file must come back clean with at
  # least the 12 inserts acknowledged before the writer stream began.
  ./target/release/cdb fsck "$f" --rebuild-indexes | grep 'wal: replayed' >/dev/null
  ./target/release/cdb fsck "$f" | grep 'fsck: ok' >/dev/null
  local count
  count=$(printf 'open %s\nstats\nquit\n' "$f" | ./target/release/cdb \
    | sed -n 's/.*parcels: 2-D, \([0-9]*\) tuples.*/\1/p')
  if [ -z "$count" ] || [ "$count" -lt 12 ]; then
    echo "ci: mixed smoke lost acked inserts (recovered ${count:-none})" >&2
    rm -f "$f" "$f.wal" "$log"
    return 1
  fi
  rm -f "$f" "$f.wal" "$log"
}
step mixed mixed_smoke

# Replication smoke: a WAL-retaining primary plus two followers, all on
# ephemeral ports. Scripted writes enter through a cluster session whose
# member list leads with a follower (exercising the NotPrimary redirect),
# both followers converge and serve load-balanced reads, then the primary
# is SIGKILLed and restarted on the same port: every acknowledged write
# survives, the followers re-subscribe, and every file fscks clean.
cluster_smoke() {
  local base="${TMPDIR:-/tmp}/cdb_ci_cluster_$$"
  local pdb="${base}_p.db" f1db="${base}_f1.db" f2db="${base}_f2.db"
  local plog="${base}_p.log" f1log="${base}_f1.log" f2log="${base}_f2.log"
  local all=("$pdb" "$pdb.wal" "$f1db" "$f1db.wal" "$f2db" "$f2db.wal" \
    "$plog" "$f1log" "$f2log")
  local pids=()
  rm -f "${all[@]}"
  await_addr() {
    local log=$1 addr=""
    for _ in $(seq 1 50); do
      addr=$(sed -n 's/^listening on //p' "$log")
      [ -n "$addr" ] && break
      sleep 0.1
    done
    echo "$addr"
  }
  die() {
    echo "ci: cluster smoke: $1" >&2
    kill -9 "${pids[@]}" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -f "${all[@]}"
  }

  ./target/release/cdb-server "$pdb" --retain-wal --checkpoint-every 8 >"$plog" &
  local ppid=$!
  pids+=("$ppid")
  local paddr
  paddr=$(await_addr "$plog")
  [ -n "$paddr" ] || { die "primary never announced its address"; return 1; }
  ./target/release/cdb-server "$f1db" --replica-of "$paddr" >"$f1log" &
  pids+=($!)
  ./target/release/cdb-server "$f2db" --replica-of "$paddr" >"$f2log" &
  pids+=($!)
  local f1addr f2addr
  f1addr=$(await_addr "$f1log")
  f2addr=$(await_addr "$f2log")
  { [ -n "$f1addr" ] && [ -n "$f2addr" ]; } \
    || { die "a follower never announced its address"; return 1; }

  # Writes through a cluster session that lists a follower first: every
  # mutation is redirected to the primary via NotPrimary{leader_hint}.
  {
    printf 'create parcels 2\n'
    for i in $(seq 1 16); do
      printf 'insert parcels y >= 0 && y <= 2 && x >= %s && x <= %s\n' "$i" "$((i + 3))"
    done
    printf 'index parcels 4\n'
  } | TERM= ./target/release/cdb-client --cluster "$f1addr,$f2addr,$paddr" >/dev/null

  # Both followers converge: the replicated state holds all 16 tuples.
  local faddr ok
  for faddr in "$f1addr" "$f2addr"; do
    ok=""
    for _ in $(seq 1 100); do
      if TERM= ./target/release/cdb-client "$faddr" stats 2>/dev/null \
        | grep 'parcels: 2-D, 16 tuples' >/dev/null; then
        ok=1
        break
      fi
      sleep 0.1
    done
    [ -n "$ok" ] || { die "follower $faddr never caught up"; return 1; }
  done

  # Load-balanced cluster reads see the full relation.
  TERM= ./target/release/cdb-client --cluster "$f1addr,$f2addr,$paddr" \
    exist parcels 'y >= -1000000' | grep '^16 matches' >/dev/null \
    || { die "cluster read missed rows"; return 1; }

  # SIGKILL the primary: reads keep flowing from the followers...
  kill -9 "$ppid"
  wait "$ppid" 2>/dev/null || true
  TERM= ./target/release/cdb-client --cluster "$f1addr,$f2addr,$paddr" \
    exist parcels 'y >= -1000000' | grep '^16 matches' >/dev/null \
    || { die "reads failed with the primary down"; return 1; }

  # ...and a restart on the same port recovers every acknowledged write
  # from the retained WAL; the followers re-subscribe on their own.
  ./target/release/cdb-server "$pdb" --retain-wal --checkpoint-every 8 \
    --addr "$paddr" >"$plog" &
  ppid=$!
  pids+=("$ppid")
  [ -n "$(await_addr "$plog")" ] \
    || { die "restarted primary never announced its address"; return 1; }
  TERM= ./target/release/cdb-client "$paddr" stats \
    | grep 'parcels: 2-D, 16 tuples' >/dev/null \
    || { die "restart lost acknowledged writes"; return 1; }
  ok=""
  for _ in $(seq 1 100); do
    if TERM= ./target/release/cdb-client "$paddr" stats 2>/dev/null \
      | grep ': connected, acked through' >/dev/null; then
      ok=1
      break
    fi
    sleep 0.1
  done
  [ -n "$ok" ] || { die "followers never re-subscribed after restart"; return 1; }

  # One more write proves the cluster is writable again end to end.
  TERM= ./target/release/cdb-client --cluster "$f1addr,$f2addr,$paddr" \
    insert parcels 'y >= 0 && y <= 1 && x >= 90 && x <= 91' >/dev/null \
    || { die "write after primary restart failed"; return 1; }

  # Graceful teardown, then offline checksum verification of every file.
  TERM= ./target/release/cdb-client "$f1addr" shutdown >/dev/null
  TERM= ./target/release/cdb-client "$f2addr" shutdown >/dev/null
  TERM= ./target/release/cdb-client "$paddr" shutdown >/dev/null
  wait "${pids[@]}" 2>/dev/null || true
  local db
  for db in "$pdb" "$f1db" "$f2db"; do
    ./target/release/cdb fsck "$db" | grep 'fsck: ok' >/dev/null \
      || { die "fsck failed on $db"; return 1; }
  done
  rm -f "${all[@]}"
}
step cluster cluster_smoke

# Sharding smoke: `cdb-shard` boots 2 shards × (primary + follower) on
# ephemeral ports; scripted writes enter through a sharded session (each
# insert routed to its id's owning shard, queries fanned out and merged).
# Then one shard's primary is SIGKILLed: fanned-out reads keep flowing
# through that shard's follower, a same-port restart with the same
# --shard flags recovers every acknowledged write from the retained WAL,
# the deployment takes one more write, and every file fscks clean.
shard_smoke() {
  local dir="${TMPDIR:-/tmp}/cdb_ci_shard_$$"
  local log="${dir}/launcher.log" out="${dir}/client.out"
  rm -rf "$dir"
  mkdir -p "$dir"
  die() {
    echo "ci: shard smoke: $1" >&2
    # The launcher's members are grandchildren: kill them by the pids it
    # printed, or killing only the launcher would orphan every server.
    sed -n 's/.* pid=\([0-9]*\) .*/\1/p' "$log" 2>/dev/null \
      | xargs -r kill -9 2>/dev/null || true
    kill -9 $(jobs -p) 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$dir"
  }

  ./target/release/cdb-shard --shards 2 --followers 1 --data-dir "$dir" \
    --checkpoint-every 8 >"$log" &
  local launcher=$!
  local spec=""
  for _ in $(seq 1 100); do
    spec=$(sed -n 's/^spec //p' "$log")
    [ -n "$spec" ] && break
    sleep 0.1
  done
  [ -n "$spec" ] || { die "launcher never printed the shard spec"; return 1; }
  local p0pid p0addr
  p0pid=$(sed -n 's/^shard 0 primary pid=\([0-9]*\) .*/\1/p' "$log")
  p0addr=$(sed -n 's/^shard 0 primary .* addr=\([^ ]*\) .*/\1/p' "$log")
  { [ -n "$p0pid" ] && [ -n "$p0addr" ]; } \
    || { die "launcher never printed shard 0's primary"; return 1; }

  # 16 acked writes and a fanned-out index build through one sharded
  # session (one session: the router's global id counter stays warm).
  {
    printf 'create parcels 2\n'
    for i in $(seq 1 16); do
      printf 'insert parcels y >= 0 && y <= 2 && x >= %s && x <= %s\n' "$i" "$((i + 3))"
    done
    printf 'index parcels 4\n'
    printf 'exist parcels y >= -1000000\n'
    printf 'cluster stats\n'
  } | TERM= ./target/release/cdb-client --shards "$spec" >"$out" \
    || { die "sharded write session failed"; return 1; }
  # (The scripted session echoes prompts, so the match is not anchored.)
  grep -Eq '(^|[^0-9])16 matches:' "$out" || { die "merged read missed rows"; return 1; }
  # The fan-in stats table shows every member of every shard with a role.
  [ "$(grep -c ' primary ' "$out")" -eq 2 ] \
    || { die "cluster stats is missing a primary row"; return 1; }
  [ "$(grep -c ' replica' "$out")" -eq 2 ] \
    || { die "cluster stats is missing a follower row"; return 1; }

  # SIGKILL shard 0's primary: merged reads ride through its follower.
  # (Full-read greps below, not -q: quitting at the first line would
  # SIGPIPE the client mid-output, and pipefail would fail the read.)
  kill -9 "$p0pid"
  TERM= ./target/release/cdb-client --shards "$spec" \
    exist parcels 'y >= -1000000' | grep '^16 matches' >/dev/null \
    || { die "reads failed with one shard primary down"; return 1; }

  # Same-port restart with the same --shard flags (the spec in the file's
  # catalog must verify, not conflict): zero acked loss.
  ./target/release/cdb-server "$dir/shard-0.cdb" --addr "$p0addr" \
    --shard 0/2 --retain-wal --checkpoint-every 8 >"$dir/restart.log" &
  local rpid=$!
  local raddr=""
  for _ in $(seq 1 50); do
    raddr=$(sed -n 's/^listening on //p' "$dir/restart.log")
    [ -n "$raddr" ] && break
    sleep 0.1
  done
  [ -n "$raddr" ] || { die "restarted shard primary never came up"; return 1; }
  TERM= ./target/release/cdb-client --shards "$spec" \
    exist parcels 'y >= -1000000' | grep '^16 matches' >/dev/null \
    || { die "restart lost acknowledged writes"; return 1; }
  TERM= ./target/release/cdb-client --shards "$spec" \
    insert parcels 'y >= 0 && y <= 1 && x >= 90 && x <= 91' >/dev/null \
    || { die "write after shard restart failed"; return 1; }
  TERM= ./target/release/cdb-client --shards "$spec" \
    exist parcels 'y >= -1000000' | grep '^17 matches' >/dev/null \
    || { die "post-restart write is not visible"; return 1; }

  # Graceful teardown of every member, then offline fsck of every file.
  local addr
  for addr in $(echo "$spec" | tr ';,' '  '); do
    TERM= ./target/release/cdb-client "$addr" shutdown >/dev/null \
      || { die "member $addr refused shutdown"; return 1; }
  done
  wait "$rpid" 2>/dev/null || true
  wait "$launcher" 2>/dev/null || true # exits 1: one child was SIGKILLed
  local db
  for db in "$dir"/shard-*.cdb; do
    ./target/release/cdb fsck "$db" | grep -q 'fsck: ok' \
      || { die "fsck failed on $db"; return 1; }
  done
  rm -rf "$dir"
}
step shard shard_smoke

step clippy cargo clippy --workspace --all-targets -- -D warnings
step doc env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
step fmt cargo fmt --all --check

tmp_after=$(tmp_snapshot)
leaked=$(comm -13 <(echo "$tmp_before") <(echo "$tmp_after"))
if [ -n "$leaked" ]; then
  echo "ci: temp-file leak — tests left these behind in ${TMPDIR:-/tmp}:" >&2
  echo "$leaked" >&2
  exit 1
fi

echo "ci: all green ($((SECONDS))s total)"
