#!/usr/bin/env python3
"""Build the repository and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds bin/rrs.exe and the measuring
program (perfbench/rrsbench.exe) with dune, runs the program in a
process group of its own, and afterwards proves that no process of that
group outlived it and that its scratch directory is gone. The last line
of standard output is the result object; see perfbench/NOTES.md.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("engine-batch", "serve-session", "serve-routed")
RUN_TIMEOUT_S = 170
SCRATCH = ".perfbench_run"


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile("dune-project"):
        fail("no dune-project here: run from the root of a checkout of the repository")
    try:
        subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./bin/rrs.exe", "./perfbench/rrsbench.exe"],
            check=True, stdin=subprocess.DEVNULL, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.SubprocessError) as exc:
        fail(f"build failed: {exc}")


def group_members(pgid):
    """Pids of live processes in process group pgid, read from /proc."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        # fields: state, ppid, pgrp, ...; zombies are reaped by their parent
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def stop_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    argv = ["./_build/default/perfbench/rrsbench.exe",
            "--rrs", "./_build/default/bin/rrs.exe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # Every measured process shares one CPU: across CPUs, which of them
    # land together changes from run to run and swings the serve
    # workloads' round time by up to 2x (see NOTES.md).
    cpu = max(os.sched_getaffinity(0))
    libc = ctypes.CDLL(None, use_errno=True)

    def in_child():
        os.sched_setaffinity(0, {cpu})
        # If this script dies without cleaning up, the program gets
        # SIGTERM and stops its own children (PR_SET_PDEATHSIG = 1).
        libc.prctl(1, signal.SIGTERM)

    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True, start_new_session=True, preexec_fn=in_child)
    problems = []
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        problems.append("the measuring program timed out")
        stop_group(proc.pid)
        out, _ = proc.communicate()
    except BaseException:
        # Interrupted: let the program stop its children and remove its
        # scratch files, then make sure of both below.
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            stop_group(proc.pid)
            proc.wait()
        raise
    finally:
        # Child hygiene: nothing the run started may outlive it.
        deadline = time.monotonic() + 5
        while group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        leftovers = group_members(proc.pid)
        if leftovers:
            problems.append(f"processes outlived the run: {leftovers}")
            stop_group(proc.pid)
        for entry in os.listdir(SCRATCH) if os.path.isdir(SCRATCH) else []:
            if entry != "spans":
                problems.append(f"scratch directory left behind: {entry}")
                shutil.rmtree(os.path.join(SCRATCH, entry), ignore_errors=True)

    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None:
        fail(f"no result (exit code {proc.returncode}); {'; '.join(problems)}")
    if problems:
        for p in problems:
            print(f"run.py: FAILED: {p}", file=sys.stderr)
        result["correct"] = False
        result["failed"] += len(problems)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
