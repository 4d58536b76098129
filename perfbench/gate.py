"""Correctness gate shared by the end-to-end runner and the traced runner.

Every igmax command a workload runs is one operation.  It fails when it exits
non-zero, when its output disagrees with a closed-form count or with what an
earlier command of the same run reported, or when its stdout or log bytes
differ from an earlier run of the same source tree.  No digest is pinned:
digests are only compared between runs of identical code.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PLAN = json.loads((Path(__file__).resolve().parent / "plan.json").read_text())
STATE_DIR = ROOT / ".perfbench"


def workload_groups(name: str) -> dict[str, list[list[str]]]:
    """A workload's commands, grouped under the name their summed time is reported by."""
    return PLAN["workloads"][name]["groups"]


def workload_commands(name: str) -> list[list[str]]:
    """A workload's commands in the order they run."""
    return [argv for group in workload_groups(name).values() for argv in group]


def stirling2(n: int, r: int) -> int:
    """Partitions of an n-set into r blocks."""
    return sum((-1) ** j * math.comb(r, j) * (r - j) ** n for j in range(r + 1)) // math.factorial(r)


def generator_count(n: int, r: int) -> int:
    """(kernel, image) transversal pairs: an image, then a block for every other point."""
    return math.comb(n, r) * r ** (n - r)


def coxeter_relation_count(r: int) -> int:
    """Involutions, braids and far commutations among r-1 adjacent transpositions."""
    return (r - 1) + (r - 2) + (r - 2) * (r - 3) // 2


@dataclass
class Outcome:
    """What one command did, as the gate sees it."""

    argv: list[str]
    exit_code: int
    stdout_sha: str
    stdout_lines: int
    stdout_bytes: int
    stdout: Optional[bytes]  # None for streams, which are only hashed and counted
    log_sha: Optional[str] = None
    log_bytes: int = 0
    stderr_tail: str = ""


def outcome_from_bytes(argv: list[str], exit_code: int, stdout: bytes, workdir: Path) -> Outcome:
    """The gate's view of one finished command, hashing the log a successful ``reduce`` wrote."""
    out = Outcome(
        argv=argv,
        exit_code=exit_code,
        stdout_sha=hashlib.sha256(stdout).hexdigest(),
        stdout_lines=stdout.count(b"\n"),
        stdout_bytes=len(stdout),
        stdout=None if argv[0] == "squares" else stdout,
    )
    log = workdir / _flag(argv, "--log") if argv[0] == "reduce" else None
    if exit_code == 0 and log is not None and log.is_file():
        data = log.read_bytes()
        out.log_sha = hashlib.sha256(data).hexdigest()
        out.log_bytes = len(data)
    return out


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


class Gate:
    """Checks the commands of one run in order, remembering what earlier ones reported."""

    def __init__(self, digests: Optional[dict] = None):
        self.digests: dict[str, list] = digests if digests is not None else {}
        self.singular_total: dict[tuple[int, int], int] = {}
        self.reduced: dict[str, tuple[int, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, out: Outcome) -> list[str]:
        problems = self._problems(out)
        key = " ".join(out.argv)
        digest = [out.stdout_sha, out.log_sha]
        if out.exit_code == 0:
            seen = self.digests.setdefault(key, digest)
            if seen != digest:
                problems.append("stdout or log bytes differ from an earlier run of the same code")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(f"{key}: {p}" for p in problems)
        return problems

    def _problems(self, out: Outcome) -> list[str]:
        if out.exit_code != 0:
            return [f"exit code {out.exit_code}" + (f" ({out.stderr_tail})" if out.stderr_tail else "")]
        cmd = out.argv[0]
        try:
            if cmd == "squares":
                return self._squares(out)
            doc = json.loads(out.stdout)
            return getattr(self, "_" + cmd)(out.argv, doc)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    @staticmethod
    def _nr(argv: list[str]) -> tuple[int, int]:
        return int(_flag(argv, "--n")), int(_flag(argv, "--r"))

    def _stats(self, argv, doc) -> list[str]:
        n, r = self._nr(argv)
        problems = _expect(
            ("partitions", doc["partitions"], stirling2(n, r)),
            ("subsets", doc["subsets"], math.comb(n, r)),
            ("transversal pairs", doc["transversal_pairs"], generator_count(n, r)),
            ("singular total", doc["singular_total"], doc["singular_proper"] + doc["singular_degenerate"]),
        )
        self.singular_total[(n, r)] = doc["singular_proper"] + doc["singular_degenerate"]
        return problems

    def _squares(self, out: Outcome) -> list[str]:
        case = self._nr(out.argv)
        if case not in self.singular_total:
            return [f"no stats for {case} earlier in the run to count against"]
        return _expect(("singular records", out.stdout_lines, self.singular_total[case]))

    def _reduce(self, argv, doc) -> list[str]:
        n, r = self._nr(argv)
        self.reduced[_flag(argv, "--log")] = (doc["relations"], doc["steps"])
        return _expect(
            ("generators", doc["generators"], generator_count(n, r)),
            ("final generators", doc["final_generators"], r - 1),
            ("final relations", doc["final_relations"], coxeter_relation_count(r)),
        )

    def _replay(self, argv, doc) -> list[str]:
        log = _flag(argv, "--log")
        if log not in self.reduced:
            return [f"no reduce wrote {log} earlier in the run"]
        relations, steps = self.reduced[log]
        return _expect(
            ("replay ok", doc["ok"], True),
            ("failures", len(doc["failures"]), 0),
            ("discharged", doc["discharged"], relations),
            ("replayed relations", doc["relations"], relations),
            ("steps checked", doc["steps_checked"], steps),
        )

    def _verify(self, argv, doc) -> list[str]:
        _, r = self._nr(argv)
        checks = [
            ("verdict", doc["verdict"], f"confirmed S_{r}"),
            ("pipeline", doc["pipeline"], True),
            ("homomorphism", doc["homomorphism"], True),
        ]
        if "--with-coset-oracle" in argv:
            checks.append(("coset order", doc["coset_order"], math.factorial(r)))
        return _expect(*checks)


def _expect(*checks) -> list[str]:
    return [f"{what} is {got!r}, expected {want!r}" for what, got, want in checks if got != want]


def source_fingerprint() -> str:
    """sha256 over the program's source tree, so digests are compared only within one version."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def load_digests(fingerprint: str) -> dict:
    path = STATE_DIR / "digests.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get(fingerprint, {})


def save_digests(fingerprint: str, digests: dict) -> None:
    path = STATE_DIR / "digests.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    store[fingerprint] = digests
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    tmp.replace(path)
