"""igmax benchmark: runs one workload through the real CLI and prints its metrics.

    python3 perfbench/run.py --workload trust-7-4 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` every command runs in its own child process, one at a time,
and the end-to-end metrics are measured around them.  With ``--trace 1`` the
same commands run inside one child process with spans around the calls into
each igmax module (perfbench/trace_run.py), which gives the per-layer split.
Either way the seed becomes every child's PYTHONHASHSEED; the workload
inputs themselves are fixed.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 2, without a
result, means the program could not be found or imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402

SETUP_SAMPLES = 7  # before and again after the passes
COMMAND_TIMEOUT_S = 150
MB = 1024 * 1024

# (metric, unit) of the gated metrics, in the order they are printed
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
    ("setup_s", "s"),
)


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(gate.SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def run_command(argv: list[str], workdir: Path, env: dict) -> tuple[gate.Outcome, float, float, float]:
    """Run one CLI command; return its outcome, wall s, cpu s (user+sys) and peak RSS MB.

    stdout goes to a file and is hashed and counted after the command ends,
    so the runner does no work while a command is timed.
    """
    stdout_path, stderr_path = workdir / "stdout.bin", workdir / "stderr.txt"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "igmax.cli", *argv], cwd=workdir, env=env, stdout=out, stderr=err
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = gate.outcome_from_bytes(argv, proc.returncode, stdout_path.read_bytes(), workdir)
    outcome.stderr_tail = stderr_path.read_text(errors="replace").strip()[-300:]
    return outcome, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def run_pass(commands: list[list[str]], workdir: Path, env: dict, checker: gate.Gate) -> list[dict]:
    """One pass over every command of a workload; returns each command's numbers."""
    numbers = []
    for argv in commands:
        out, wall, cpu, rss = run_command(argv, workdir, env)
        checker.check(out)
        numbers.append({"wall": wall, "cpu": cpu, "rss": rss,
                        "out": out.stdout_bytes + out.log_bytes, "log": out.log_bytes})
    return numbers


def measure_setup(env: dict, samples: int) -> list[float]:
    """Wall times of fresh interpreters importing igmax.cli (bytecode already cached)."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import igmax.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def preflight(env: dict) -> None:
    """Exit 2 without a result unless the program's source is present and imports."""
    if not (gate.SRC / "igmax" / "cli.py").is_file():
        print(f"perfbench: no igmax source under {gate.SRC}", file=sys.stderr)
        sys.exit(2)
    probe = subprocess.run(
        [sys.executable, "-c", "import igmax.cli"], env=env, capture_output=True, text=True
    )
    if probe.returncode != 0:
        print(f"perfbench: igmax.cli does not import:\n{probe.stderr}", file=sys.stderr)
        sys.exit(2)


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[gate.Gate, dict, dict, int]:
    """Repeat whole passes while another fits in ``seconds``; each command counts with its median."""
    env = child_env(seed)
    fingerprint = gate.source_fingerprint()
    checker = gate.Gate(gate.load_digests(fingerprint))
    commands = gate.workload_commands(workload)
    setup = measure_setup(env, SETUP_SAMPLES)
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(commands, workdir, env, checker))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            break
    setup += measure_setup(env, SETUP_SAMPLES)
    gate.save_digests(fingerprint, checker.digests)

    per_command = {
        " ".join(argv): {k: statistics.median(p[i][k] for p in passes) for k in ("wall", "cpu", "out", "log")}
        for i, argv in enumerate(commands)
    }
    metrics = {
        "wall_s": sum(c["wall"] for c in per_command.values()),
        "cpu_s": sum(c["cpu"] for c in per_command.values()),
        "peak_rss_mb": max(c["rss"] for p in passes for c in p),
        "output_mb": sum(c["out"] for c in per_command.values()) / MB,
        "setup_s": statistics.median(setup),
    }
    # Reported by name with every run, not gated: one command's time moves too
    # much with the speed of a shared machine to hold a 25% bound.
    extra = {
        group: (sum(per_command[" ".join(argv)]["wall"] for argv in argvs), "s")
        for group, argvs in gate.workload_groups(workload).items()
    }
    extra["log_mb"] = (sum(c["log"] for c in per_command.values()) / MB, "MB")
    return checker, metrics, extra, len(passes)


def traced(workload: str, seed: int, workdir: Path) -> tuple[gate.Gate, dict, dict]:
    result_path = workdir / "trace-result.json"
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "trace_run.py"),
         "--workload", workload, "--workdir", str(workdir), "--result", str(result_path)],
        env=child_env(seed), check=True, timeout=COMMAND_TIMEOUT_S + 20,
    )
    doc = json.loads(result_path.read_text())
    checker = gate.Gate()
    checker.attempted, checker.failed, checker.messages = doc["attempted"], doc["failed"], doc["messages"]
    return checker, doc["metrics"], doc["units"]


def bench(workload: str, seed: int, seconds: float, trace: int) -> None:
    """Run one workload and print its report, ending with the result line."""
    workdir = gate.STATE_DIR / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    extra, passes = {}, 0
    try:
        if trace:
            checker, metrics, units = traced(workload, seed, workdir)
        else:
            checker, metrics, extra, passes = end_to_end(workload, seed, seconds, workdir)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"perfbench workload={workload} seed={seed} PYTHONHASHSEED={seed % 2**32} "
        f"trace={trace} nproc={os.cpu_count()} python={platform.python_version()}"
        + ("" if trace else f" passes={passes}")
    )
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<34} {value:>14.6g} {unit}  (not gated)")
    print(f"  {'error_rate':<34} {checker.failed / max(checker.attempted, 1):>14.6g} "
          f"({checker.failed} failed / {checker.attempted} attempted)")
    for msg in checker.messages[:20]:
        print(f"  FAILED {msg}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(gate.PLAN["workloads"]) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    preflight(child_env(args.seed))
    workloads = list(gate.PLAN["workloads"]) if args.workload == "all" else [args.workload]
    for workload in workloads:
        bench(workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
