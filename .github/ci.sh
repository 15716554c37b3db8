# Shell helpers for the binary smoke steps of workflows/ci.yml, which
# source this file. Every wait takes its loop's tries and pause, so each
# step states its own bounds; a wait that runs out fails the step.

# retry TRIES PAUSE CMD...: runs CMD until it succeeds, at most TRIES times,
# PAUSE seconds apart. Waits on /healthz, /readyz, a /metrics line or an
# artifact that is not ready yet are all this.
retry() {
  local tries=$1 pause=$2 i
  shift 2
  for i in $(seq 1 "$tries"); do
    "$@" && return 0
    sleep "$pause"
  done
  return 1
}

# has_metric BASE LINE: the /metrics page of the csbd at BASE has LINE.
has_metric() {
  curl -sf "$1/metrics" | grep -qx "$2"
}

# submit BASE SPEC: posts the job SPEC to the csbd at BASE and sets $job and
# $artifact to the job and artifact IDs of its reply.
submit() {
  local reply
  reply=$(curl -sf -X POST "$1/v1/jobs" -d "$2")
  job=$(echo "$reply" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
  artifact=$(echo "$reply" | sed -n 's/.*"artifact_id":"\([^"]*\)".*/\1/p')
}

# wait_state BASE JOB WANT TRIES PAUSE: polls JOB on the csbd at BASE until
# its state is WANT, and fails at once if the job failed. $state holds the
# last state read.
wait_state() {
  local i
  for i in $(seq 1 "$4"); do
    state=$(curl -sf "$1/v1/jobs/$2" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    [ "$state" = "$3" ] && return 0
    [ "$state" = failed ] && { echo "job $2 failed" >&2; return 1; }
    sleep "$5"
  done
  return 1
}

# wait_serving LOG PID TRIES PAUSE: waits for csbreplay's serving line in
# LOG, which it prints after Listen, and fails at once if PID has exited.
wait_serving() {
  local i
  for i in $(seq 1 "$3"); do
    grep -q 'csbreplay serving' "$1" && return 0
    kill -0 "$2" || return 1
    sleep "$4"
  done
  return 1
}
