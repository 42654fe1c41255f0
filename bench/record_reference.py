#!/usr/bin/env python3
"""Record the reference reports that ``bench/run.py`` compares against.

    python3 bench/record_reference.py

Runs every workload's commands once at the default seed and writes their
reports to ``bench/reference/<workload>.json``.  The reports must still
pass every other check.  Run it only at a commit whose outputs are the
accepted ones: any later change to a reported number then fails the
benchmark at the default seed until it is recorded again on purpose.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import run
import workloads


def main() -> int:
    os.chdir(run.ROOT)
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    env = run.child_env()
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, checks.DEFAULT_SEED)
        checker = checks.Checker(workload)
        reports = {}
        for command in workload.commands:
            argv = [sys.executable, "-m", "margshift.cli", *command.argv]
            res = run.spawn(argv, env, run.OUT_DIR / "child.stderr", run.DEADLINE_S)
            problems = checker.check(command, res.returncode, res.stdout)
            if problems:
                print(f"{name} {command.label}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            reports[command.label] = json.loads(res.stdout)
        path = checks.reference_path(name)
        path.write_text(json.dumps(reports, indent=1) + "\n", encoding="utf-8")
        print(f"recorded {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
