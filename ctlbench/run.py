#!/usr/bin/env python3
"""Build and run the control-loop benchmark from the repository root.

    python3 ctlbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `smn-ctlbench` (release, offline) into $CARGO_TARGET_DIR, or
ctlbench/target when it is unset, runs one workload in a fresh process, and
passes its output through. Before the result line it prints an `env` line:
the CPU model, nproc, and, over the run, the machine's steal time and the
CPU time that other processes kept busy (from /proc/stat, read only), so a
slow run set can be told apart from a slow program. The last line is the
benchmark's JSON result. Exits non-zero, without a result, when the build
or the run fails.
"""

import json
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def cpu_times():
    """(busy, steal) seconds summed over all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    hz = os.sysconf("SC_CLK_TCK")
    return (user + nice + system + irq + softirq) / hz, steal / hz


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def children_cpu():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("ctlbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(os.path.abspath(target), "release", "smn-ctlbench")

    busy0, steal0 = cpu_times()
    child0 = children_cpu()
    run = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE, text=True)
    busy1, steal1 = cpu_times()
    own = children_cpu() - child0
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        print(f"ctlbench: run exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    env = {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "own_cpu_s": round(own, 3),
        "other_busy_s": round(busy1 - busy0 - own, 3),
        "steal_s": round(steal1 - steal0, 3),
    }
    for line in lines[:-1]:
        print(line)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
