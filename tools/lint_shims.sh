#!/bin/sh
# Guard against new parallel scheduler entry points.
#
# The historical schedule / schedule_ctx / *_diag scheduler entry points
# survive only as thin compat shims over the canonical
# [run]/[run_with]/[run_full] implementations, in the blessed files listed
# below. Defining a name of that shape anywhere else reintroduces the
# split-implementation problem the scheduler-registry refactor removed —
# fail CI instead. (Internal indexed helpers like Xfer_gen.plain_ctx are
# out of scope: the guard covers the scheduler entry-point namespace,
# names starting with schedule/plan/retention.)
set -eu
cd "$(dirname "$0")/.."

# Files allowed to define the compat shims.
allowed='lib/sched/basic_scheduler\.ml|lib/sched/data_scheduler\.ml|lib/cds/complete_data_scheduler\.ml'

offenders=$(grep -rn --include='*.ml' -E '^[[:space:]]*let[[:space:]]+(schedule|plan|retention)[a-z_]*(_ctx|_diag)' lib bin \
  | grep -Ev "^($allowed):" || true)

if [ -n "$offenders" ]; then
  echo "lint_shims: new schedule_ctx-style entry points outside the blessed shim files:" >&2
  echo "$offenders" >&2
  echo "Implement the behaviour in the scheduler's canonical run/run_with/run_full" >&2
  echo "entry point (lib/sched/scheduler_intf.mli) instead of adding a parallel one." >&2
  exit 1
fi

echo "lint_shims: OK (compat shims confined to their blessed files)"
