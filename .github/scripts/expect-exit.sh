#!/usr/bin/env bash
# Usage: expect-exit.sh CODE SECONDS ARGS...
# Runs `python -m qgen ARGS...` from the source tree under a limit of
# SECONDS and fails unless it exits with CODE and prints no Python
# traceback.  Its stderr is printed on stdout, so a caller can match the
# message.
set -u
want=$1 seconds=$2
shift 2
code=0
err=$(PYTHONPATH=src timeout "$seconds" python -m qgen "$@" 2>&1 >/dev/null) || code=$?
echo "$err"
if [ "$code" -ne "$want" ]; then
  echo "qgen $*: exit $code, expected $want" >&2
  exit 1
fi
case "$err" in
  *Traceback*) echo "qgen $*: traceback on stderr" >&2; exit 1;;
esac
