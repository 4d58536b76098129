"""Command-line front end: batch queries with text or JSON output.

Commands
--------

``stats``    counts for one (n, r): partitions, subsets, transversal pairs,
             square census, and the full label spectrum.
``label``    the permutation label of one (kernel, image) pair.
``squares``  stream every ordered square as newline-delimited JSON.
``present``  print the generating presentation (optionally one family).
``reduce``   run the reduction pipeline; optionally write the derivation log.
``replay``   re-check a derivation log with the independent verifier.
``verify``   end-to-end theorem check, optionally with the coset oracle.

Exit codes: 0 success, 2 usage (cap violations, ``reduce`` at r > n-2,
``--with-coset-oracle`` at r = n-1, ``--max-cosets`` below 1 or without
``--with-coset-oracle``, an unreadable or unwritable ``--log`` path),
3 precondition failure, 4 verification failure, 5 coset budget exhausted.
Output for a fixed command line is byte-identical across runs; streams are
newline-delimited JSON with sorted keys.  Commands run with the cyclic
garbage collector off (see ``main``).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

from .combinatorics import Partition, Subset
from .errors import (
    InvalidParameters,
    NotASquare,
    TransversalityViolation,
    VerificationFailed,
)
from .labels import label_with_context
from .squares import label_spectrum, square_census, square_lines

# Not called here: perfbench/trace_run.py wraps these three names in this module.
from .squares import enumerate_squares, is_singular_sq3, square_record  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4
EXIT_BUDGET = 5

HARD_CAP = 12
SQUARES_WARN_ABOVE = 8


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated common settings for one command invocation."""

    n: int
    r: int
    format: str = "text"
    override_cap: bool = False
    allow_boundary: bool = False

    def validate(self, theorem_command: bool = False) -> None:
        if not (1 <= self.r <= self.n):
            raise UsageError(f"need 1 <= r <= n, got r={self.r}, n={self.n}")
        if self.n > HARD_CAP and not self.override_cap:
            raise UsageError(
                f"n={self.n} exceeds the cap n <= {HARD_CAP}; pass --override-cap to proceed"
            )
        if theorem_command and self.r > self.n - 2 and not self.allow_boundary:
            raise UsageError(
                f"theorem commands need r <= n-2 (got r={self.r}, n={self.n}); "
                "pass --allow-boundary to run the boundary regime"
            )

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        return cls(
            n=getattr(args, "n", 1),
            r=getattr(args, "r", 1),
            format=getattr(args, "format", "text"),
            override_cap=getattr(args, "override_cap", False),
            allow_boundary=getattr(args, "allow_boundary", False),
        )


def _emit_json(doc: dict, out) -> None:
    out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _parse_pair(p_text: str, a_text: str, n: Optional[int]) -> tuple[Partition, Subset]:
    part = Partition.parse(p_text, n)
    return part, Subset.parse(a_text, part.n)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_stats(args, out) -> int:
    cfg = RunConfig.from_args(args)
    cfg.validate()
    census = square_census(cfg.n, cfg.r)
    spectrum = label_spectrum(cfg.n, cfg.r)
    ordered = sorted(spectrum.items(), key=lambda kv: kv[0].images)
    singular_total = census.singular_proper + census.singular_degenerate
    if cfg.format == "json":
        doc = census.to_json()
        doc["singular_total"] = singular_total
        doc["label_spectrum"] = {p.cycle_form(): c for p, c in ordered}
        _emit_json(doc, out)
        return EXIT_OK
    out.write(f"n={cfg.n} r={cfg.r}\n")
    out.write(f"partitions: {census.partitions}\n")
    out.write(f"subsets: {census.subsets}\n")
    out.write(f"transversal pairs: {census.transversal_pairs}\n")
    out.write(f"ordered squares: {census.squares}\n")
    out.write(f"proper squares: {census.proper_squares}\n")
    out.write(
        f"singular squares: {singular_total} "
        f"(proper {census.singular_proper}, degenerate {census.singular_degenerate})\n"
    )
    out.write(f"singular squares, unordered proper: {census.singular_proper_unordered}\n")
    out.write("label spectrum:\n")
    for perm, count in ordered:
        out.write(f"  {perm.cycle_form()}: {count}\n")
    return EXIT_OK


def cmd_label(args, out) -> int:
    part, sub = _parse_pair(args.P, args.A, args.n)
    cfg = RunConfig(n=part.n, r=len(part), format=args.format, override_cap=args.override_cap)
    cfg.validate()
    lam, ctx = label_with_context(part, sub)
    if cfg.format == "json":
        doc = {
            "P": part.to_json(),
            "A": sub.to_json(),
            "label": lam.cycle_form(),
            "images": lam.to_json(),
            "context": ctx.to_json(),
        }
        _emit_json(doc, out)
        return EXIT_OK
    out.write(lam.cycle_form() + "\n")
    return EXIT_OK


def cmd_squares(args, out) -> int:
    cfg = RunConfig.from_args(args)
    cfg.validate()
    if cfg.n > SQUARES_WARN_ABOVE:
        print(
            f"warning: square enumeration at n={cfg.n} is large; this may take a while",
            file=sys.stderr,
        )
    for line in square_lines(cfg.n, cfg.r, args.only_singular):
        out.write(line)
    return EXIT_OK


def cmd_present(args, out) -> int:
    # imported here, as in cmd_reduce and cmd_verify: only these commands compile
    # the presentation layer (and the Schreier words it imports)
    from .presentation import build_presentation, word_str

    cfg = RunConfig.from_args(args)
    cfg.validate()
    with warnings.catch_warnings(record=True) as caught:  # it warns at r = n-1
        warnings.simplefilter("always", UserWarning)
        pres = build_presentation(cfg.n, cfg.r)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if args.family != "all":
        pres = pres.family(args.family)
    if cfg.format == "json":
        _emit_json(pres.to_json(), out)
        return EXIT_OK
    out.write(f"generators: {len(pres.generators)}\n")
    for g in pres.generators:
        out.write(g.display() + "\n")
    out.write(f"relations: {len(pres.relations)}\n")
    for rel in pres.relations:
        out.write(f"{word_str(rel.relator())} = 1  ## {rel.tag}\n")
    return EXIT_OK


def cmd_reduce(args, out) -> int:
    from .pipeline import run_pipeline

    cfg = RunConfig.from_args(args)
    cfg.validate()
    if cfg.r > cfg.n - 2:
        raise UsageError(f"the reduction pipeline needs r <= n-2, got r={cfg.r}, n={cfg.n}")
    final, log = run_pipeline(cfg.n, cfg.r)
    if args.log:
        with open(args.log, "w") as fh:
            log.write(fh)
    summary = {
        "n": cfg.n,
        "r": cfg.r,
        "steps": len(log),
        "generators": log.meta["generators"],
        "relations": log.meta["relations"],
        "survivors": log.meta["survivors"],
        "final_generators": len(final.generators),
        "final_relations": len(final.relations),
        "log_written": args.log,
    }
    if cfg.format == "json":
        _emit_json(summary, out)
        return EXIT_OK
    out.write(f"n={cfg.n} r={cfg.r}\n")
    out.write(f"generators: {summary['generators']}\n")
    out.write(f"relations: {summary['relations']}\n")
    out.write(f"derivation steps: {summary['steps']}\n")
    out.write(f"surviving generators: {summary['survivors']}\n")
    out.write(
        f"final presentation: {summary['final_generators']} generators, "
        f"{summary['final_relations']} relations\n"
    )
    if args.log:
        out.write(f"log written: {args.log}\n")
    return EXIT_OK


def cmd_replay(args, out) -> int:
    """Replay the log at ``args.log``.  :func:`~igmax.logreader.read_log`
    reads the members before its steps, and each step as ``from_json``
    takes it, so the file stays open until the steps are parsed and neither
    its text nor its document is held whole; n is held to the cap first."""
    from .logreader import read_log
    from .pipeline import DerivationLog, replay_log

    try:
        with open(args.log) as fh:
            doc = read_log(fh)
            # the parser builds the (n, r) index, so n is held to the cap first
            n, r = DerivationLog.case_of(doc)
            RunConfig(n=n, r=r, override_cap=args.override_cap).validate()
            log = DerivationLog.from_json(doc)
    except (RecursionError, UnicodeDecodeError) as exc:  # nested deeper than the parser recurses, or not UTF-8
        raise VerificationFailed(f"malformed derivation log: {exc}") from None
    del doc
    report = replay_log(log)
    if args.format == "json":
        _emit_json(report.to_json(), out)
    else:
        out.write(f"log: n={report.n} r={report.r}\n")
        out.write(f"steps checked: {report.steps_checked}\n")
        out.write(f"failures: {len(report.failures)}\n")
        for idx, msg in report.failures[:20]:
            out.write(f"  step {idx}: {msg}\n")
        out.write(f"relations discharged: {report.discharged} / {report.relations}\n")
        out.write(
            "final snapshot: "
            + ("matches the Coxeter presentation" if report.final_matches else "MISMATCH")
            + "\n"
        )
        out.write("replay: " + ("PASS" if report.ok else "FAIL") + "\n")
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_verify(args, out) -> int:
    # imported here: verification and pipeline would add their compile time to every command
    from .verification import DEFAULT_MAX_COSETS, verify_theorem

    cfg = RunConfig.from_args(args)
    cfg.validate(theorem_command=True)
    if args.with_coset_oracle and cfg.r == cfg.n - 1:
        raise UsageError(
            "--with-coset-oracle needs r <= n-2: at the boundary r = n-1 the "
            "presentation is free and the enumeration cannot close"
        )
    if args.max_cosets is not None and not args.with_coset_oracle:
        raise UsageError("--max-cosets needs --with-coset-oracle")
    budget = DEFAULT_MAX_COSETS if args.max_cosets is None else args.max_cosets
    if budget < 1:
        raise UsageError(f"--max-cosets must be at least 1, got {budget}")
    report, _log = verify_theorem(cfg.n, cfg.r, budget=budget if args.with_coset_oracle else None)
    if cfg.format == "json":
        _emit_json(report.to_json(), out)
    else:
        out.write(f"n={cfg.n} r={cfg.r}\n")
        out.write(f"pipeline: {'ok' if report.pipeline else 'failed'}\n")
        out.write(f"homomorphism: {'ok' if report.homomorphism else 'failed'}\n")
        replay = report.replay_report
        if replay is not None and not replay.ok:
            out.write(f"replay failures: {len(replay.failures)}\n")
            for idx, msg in replay.failures[:20]:
                out.write(f"  step {idx}: {msg}\n")
        if args.with_coset_oracle:
            shown = report.coset_order if report.coset_order is not None else "inconclusive"
            out.write(f"coset order: {shown}\n")
        out.write(f"verdict: {report.verdict}\n")
    if (
        args.with_coset_oracle
        and report.coset_result is not None
        and not report.coset_result.closed
    ):
        return EXIT_BUDGET
    return EXIT_OK if report.verdict.startswith("confirmed") else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igmax",
        description="Maximal subgroup computations over idempotent-generated "
        "transformation semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--override-cap", action="store_true", help=f"allow n > {HARD_CAP}")

    common = argparse.ArgumentParser(add_help=False, parents=[cap])
    common.add_argument("--format", choices=("text", "json"), default="text")

    nr = argparse.ArgumentParser(add_help=False)
    nr.add_argument("--n", type=int, required=True)
    nr.add_argument("--r", type=int, required=True)

    p = sub.add_parser("stats", parents=[common, nr], help="counts and label spectrum")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("label", parents=[common], help="label of one (kernel, image) pair")
    p.add_argument("--P", required=True, help='kernel, e.g. "{{1},{2,3,5},{4,7},{6}}"')
    p.add_argument("--A", required=True, help='image, e.g. "{1,4,5,6}"')
    p.add_argument("--n", type=int, default=None, help="ground set size (default: max element of P)")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("squares", parents=[cap, nr], help="stream ordered squares as NDJSON")
    p.add_argument("--only-singular", action="store_true")
    p.set_defaults(func=cmd_squares)

    p = sub.add_parser("present", parents=[common, nr], help="print the generating presentation")
    p.add_argument("--family", choices=("top", "middle", "bottom", "all"), default="all")
    p.set_defaults(func=cmd_present)

    p = sub.add_parser("reduce", parents=[common, nr], help="run the reduction pipeline")
    p.add_argument("--log", default=None, help="write the derivation log to this file")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("replay", parents=[common], help="re-check a derivation log")
    p.add_argument("--log", required=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("verify", parents=[common, nr], help="end-to-end theorem check")
    p.add_argument("--with-coset-oracle", action="store_true")
    p.add_argument("--max-cosets", type=int, help="oracle budget in cosets (default igmax.verification.DEFAULT_MAX_COSETS), needs the oracle")
    p.add_argument("--allow-boundary", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # A command's objects (squares, relations, log steps) form no reference
    # cycles, so reference counting frees them.  With the cyclic collector
    # on, a reduce -> replay loop at (7,4) ran 4,303 collections that freed
    # 31 objects in all and cost about a third of its time.  The collector
    # goes off before the parser is built (about 580 container objects),
    # so whether a collection runs does not depend on what the caller
    # allocated before.  The caller's collector state is restored on the
    # way out.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else EXIT_OK
        return args.func(args, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (InvalidParameters, TransversalityViolation, NotASquare) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:  # an unreadable or unwritable --log path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
