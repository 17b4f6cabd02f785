#!/usr/bin/env bash
# fabric_launch.sh: one distributed fabric sweep - a coordinator in this
# process tree plus N workers, forked locally or launched over ssh.
#
#   tools/fabric_launch.sh --cli build/avglocal_cli \
#       --listen tcp:0.0.0.0:0 --workers "local local local" \
#       --json sweep.json -- --algo largest-id --graph cycle --ns 1024 --trials 500
#
# Everything after `--` is passed to `fabric-serve` verbatim (the sweep
# workload flags). Worker spellings: `local` or `localhost` forks the
# worker in this shell; anything else is an ssh destination, where the
# CLI named by --remote-cli must be runnable. For ssh workers --listen
# must be a tcp endpoint the remote hosts can reach (the unix default
# only works for local workers).
#
# No startup race: the coordinator publishes its resolved endpoint (TCP
# port 0 becomes the real bound port) through a temp file right after
# binding, and the workers' connect retries with bounded backoff besides
# - nothing here sleeps-and-hopes.
set -euo pipefail

if ((BASH_VERSINFO[0] * 100 + BASH_VERSINFO[1] < 501)); then
  echo "fabric_launch.sh needs bash >= 5.1 (wait -n -p)" >&2
  exit 2
fi

CLI=${AVGLOCAL_CLI:-avglocal_cli}
REMOTE_CLI=avglocal_cli
LISTEN=unix:/tmp/avglocal-fabric-$$.sock
WORKERS="local local"
WORKER_THREADS=0
JSON=

usage() {
  cat <<'EOF'
usage: fabric_launch.sh [--cli PATH] [--remote-cli PATH] [--listen ENDPOINT]
                        [--workers "HOST HOST ..."] [--worker-threads N]
                        [--json FILE] -- SWEEP_FLAGS...
  HOST `local`/`localhost` forks the worker here; anything else goes via ssh.
  ENDPOINT is unix:PATH or tcp:HOST:PORT (port 0 = ephemeral).
EOF
}

SERVE_ARGS=()
while [ $# -gt 0 ]; do
  case "$1" in
    --cli) CLI=$2; shift 2 ;;
    --remote-cli) REMOTE_CLI=$2; shift 2 ;;
    --listen) LISTEN=$2; shift 2 ;;
    --workers) WORKERS=$2; shift 2 ;;
    --worker-threads) WORKER_THREADS=$2; shift 2 ;;
    --json) JSON=$2; shift 2 ;;
    --help|-h) usage; exit 0 ;;
    --) shift; SERVE_ARGS=("$@"); break ;;
    *) echo "unknown argument: $1" >&2; usage; exit 2 ;;
  esac
done
if [ ${#SERVE_ARGS[@]} -eq 0 ]; then
  echo "no sweep flags after --" >&2
  usage
  exit 2
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
endpoint_file=$workdir/endpoint

serve_cmd=("$CLI" fabric-serve --listen "$LISTEN" --endpoint-file "$endpoint_file")
if [ -n "$JSON" ]; then
  serve_cmd+=(--json "$JSON")
fi
"${serve_cmd[@]}" "${SERVE_ARGS[@]}" &
serve_pid=$!

# The endpoint file appears right after the coordinator binds; if the
# coordinator died instead (bad flags, port in use), surface its exit.
for _ in $(seq 1 200); do
  if [ -s "$endpoint_file" ]; then break; fi
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    wait "$serve_pid"
    exit $?
  fi
  sleep 0.05
done
if [ ! -s "$endpoint_file" ]; then
  echo "coordinator never published its endpoint" >&2
  kill "$serve_pid" 2>/dev/null || true
  wait "$serve_pid" || true
  exit 1
fi
endpoint=$(cat "$endpoint_file")

index=0
for host in $WORKERS; do
  index=$((index + 1))
  name="w$index"
  case "$host" in
    local|localhost)
      worker=("$CLI" fabric-worker --connect "$endpoint" --name "$name"
              --threads "$WORKER_THREADS")
      ;;
    *)
      worker=(ssh "$host" "$REMOTE_CLI fabric-worker --connect '$endpoint' \
          --name '$name-$host' --threads $WORKER_THREADS")
      ;;
  esac
  # The subshell turns a worker's death by signal into an exit (128+N):
  # bash drops signal-killed jobs from the table `wait -n` reads.
  ( "${worker[@]}"; exit $? ) &
done

# The coordinator's exit is the run's verdict (0 = complete, merged,
# byte-identical report; 1 = drained early). A worker that died mid-unit
# is the fabric's business - its unit is re-dispatched - so a worker exit
# alone never fails the launch. But when every worker is gone and none
# exited 0 (a worker exits 0 only once the coordinator told it `shutdown`
# or drained it), nothing is left to pull the remaining units and the
# coordinator would wait on its accept loop forever: stop it instead.
workers_left=$index
worker_finished=0
while :; do
  pid=
  rc=0
  wait -n -p pid || rc=$?
  # No pid: nothing left to wait for, so the coordinator is gone too.
  if [ -z "${pid:-}" ] || [ "$pid" = "$serve_pid" ]; then break; fi
  workers_left=$((workers_left - 1))
  if [ "$rc" -eq 0 ]; then worker_finished=1; fi
  if [ "$workers_left" -eq 0 ] && [ "$worker_finished" -eq 0 ]; then
    kill -TERM "$serve_pid" 2>/dev/null || true
    if wait "$serve_pid"; then exit 0; fi  # it completed just before the signal
    echo "every worker exited before the sweep completed; no report written" >&2
    exit 1
  fi
done
status=0
wait "$serve_pid" || status=$?
wait
exit "$status"
