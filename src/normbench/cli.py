"""Command-line surface: eval, encode, compare, roundtrip, graph-dot.

Exit codes: 0 success (budget exhaustion is still 0, recorded in the
report), 1 parse error, 2 validation or usage error (a negative budget
too, or an --out or --emit-dot path that cannot be written), 3 failed
theorem check in compare or roundtrip mode.
"""

from __future__ import annotations

import argparse
import functools
import io
import random
import sys
from pathlib import Path

from . import crs, encode, graphs, lam, scott, workbench

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_CHECK_FAILED = 3


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_input(path_str: str):
    """Returns ("lam", term) or ("trs", CrsFile) based on the extension,
    and the input stanza of the report.  The file is read once: its bytes
    are hashed for the stanza and decoded as Path.read_text() does."""
    path = Path(path_str)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}")
    stanza = {"path": path_str, "sha256": workbench.digest(data)}
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding=io.text_encoding(None)).read()
    except UnicodeDecodeError as exc:
        raise CliError(EXIT_PARSE, f"{path}: {exc}")
    if path.suffix == ".lam":
        try:
            return "lam", workbench.parse_lambda_text(text), stanza
        except lam.LamParseError as exc:
            raise CliError(EXIT_PARSE, f"{path}: {exc}")
    if path.suffix == ".trs":
        try:
            return "trs", crs.parse_system(text), stanza
        except crs.CrsParseError as exc:
            raise CliError(EXIT_PARSE, f"{path}: {exc}")
        except crs.CrsError as exc:
            raise CliError(EXIT_VALIDATION, f"{path}: {exc}")
    raise CliError(EXIT_PARSE, f"{path}: unknown input extension (want .lam or .trs)")


def _system_and_term(kind: str, loaded):
    """The rewrite system and term of an input: the CBV image of a .lam
    term, or a .trs system with its declared term."""
    if kind == "lam":
        image = encode.encode_cbv(loaded)
        return image.system, image.term
    if loaded.term is None:
        raise CliError(EXIT_VALIDATION, "no term declaration in input")
    return loaded.system, loaded.term


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(EXIT_VALIDATION, f"cannot write {path}: {exc}")


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _maybe_dot(out: graphs.GraphOutcome | None, dest: str | None) -> None:
    # a graph run's final graph as DOT; for a term input, reading
    # out.graph is what writes the result's records into a TermGraph
    if dest and out is not None:
        _write(dest, graphs.to_dot(out.graph))


def cmd_eval(args) -> int:
    kind, loaded, stanza = _load_input(args.input)
    rng = random.Random(args.seed) if args.policy == "random" else None
    timing: dict[str, float] = {}
    graph_out = None
    with workbench.timed(timing, "total"):
        if args.engine in ("lambda-cbv", "lambda-cbn"):
            if kind != "lam":
                raise CliError(EXIT_VALIDATION, "lambda engines need a .lam input")
            strategy = "cbv" if args.engine == "lambda-cbv" else "cbn"
            run = workbench.lam_run_dict(lam.reduce(loaded, strategy, args.budget, rng=rng))
        elif args.engine == "crs":
            run = workbench.crs_run_dict(
                crs.reduce(*_system_and_term(kind, loaded), args.budget, rng=rng))
        else:
            system, t = _system_and_term(kind, loaded)
            graph_out = graphs.graph_reduce(t, system, args.budget, rng=rng)
            run = workbench.graph_run_dict(graph_out)
    report = {"schema": workbench.SCHEMA, "command": "eval",
              "input": stanza, "budget": args.budget,
              "policy": args.policy, "runs": [{"engine": args.engine, **run}],
              "timing": timing}
    _emit(workbench.render_report(report), args.out)
    _maybe_dot(graph_out, args.emit_dot)
    return EXIT_OK


def cmd_encode(args) -> int:
    kind, loaded, _ = _load_input(args.input)
    if args.to in ("crs", "crs-cbn"):
        if kind != "lam":
            raise CliError(EXIT_VALIDATION, "encoding to crs needs a .lam input")
        image = encode.encode_cbv(loaded) if args.to == "crs" else encode.encode_cbn(loaded)
        _emit(encode.system_with_table(image), args.out)
        return EXIT_OK
    if args.to == "lambda":
        if kind != "trs":
            raise CliError(EXIT_VALIDATION, "encoding to lambda needs a .trs input")
        system, term = _system_and_term(kind, loaded)
        ctx = scott.ScottContext(system)
        _emit(lam.to_str(scott.term_to_lambda(ctx, term)) + "\n", args.out)
        return EXIT_OK
    raise CliError(EXIT_VALIDATION, f"unknown encoding target {args.to!r}")


def cmd_check(args) -> int:
    """compare on a .lam input, roundtrip on a .trs input: exit code 3
    when a check of the report failed."""
    kind, loaded, stanza = _load_input(args.input)
    want = "lam" if args.command == "compare" else "trs"
    if kind != want:
        raise CliError(EXIT_VALIDATION, f"{args.command} needs a .{want} input")
    if kind == "lam":
        report = workbench.compare_engines(loaded, args.budget)
    else:
        report = workbench.roundtrip_check(*_system_and_term(kind, loaded), args.budget)
    report["input"] = stanza
    _emit(workbench.render_report(report), args.out)
    _maybe_dot(report.get("_final_graph"), args.emit_dot)
    return EXIT_OK if workbench.report_ok(report) else EXIT_CHECK_FAILED


def cmd_graph_dot(args) -> int:
    kind, loaded, _ = _load_input(args.input)
    _, term = _system_and_term(kind, loaded)
    g = graphs.term_to_graph(term)
    _emit(graphs.to_dot(g), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="normbench",
        description="normalization workbench: lambda-calculus, constructor "
                    "rewriting and term-graph engines with exact step counts")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, engines=False):
        p.add_argument("input", help="input file (.lam or .trs)")
        p.add_argument("--budget", type=int, default=workbench.DEFAULT_BUDGET)
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--emit-dot", dest="emit_dot",
                       help="write the final graph in DOT format")
        if engines:
            p.add_argument("--engine",
                           choices=["lambda-cbv", "lambda-cbn", "crs", "graph"],
                           default="lambda-cbv")
            p.add_argument("--policy", choices=["leftmost", "random"],
                           default="leftmost", help="redex-choice policy")
            p.add_argument("--seed", type=int, default=0)

    p_eval = sub.add_parser("eval", help="run one engine")
    common(p_eval, engines=True)
    p_eval.set_defaults(func=cmd_eval)

    p_enc = sub.add_parser("encode", help="translate between the formalisms")
    p_enc.add_argument("input")
    p_enc.add_argument("--to", choices=["crs", "crs-cbn", "lambda"], required=True)
    p_enc.add_argument("--out")
    p_enc.set_defaults(func=cmd_encode)

    p_cmp = sub.add_parser("compare", help="all engines plus the theorem checks")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_check)

    p_rt = sub.add_parser("roundtrip", help="rewrite system through the "
                                            "lambda and graph engines")
    common(p_rt)
    p_rt.set_defaults(func=cmd_check)

    p_dot = sub.add_parser("graph-dot", help="DOT export of the input's graph")
    p_dot.add_argument("input")
    p_dot.add_argument("--out")
    p_dot.set_defaults(func=cmd_graph_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "budget", 0) < 0:
            raise CliError(EXIT_VALIDATION, "--budget must be >= 0")
        return args.func(args)
    except CliError as exc:
        print(f"normbench: {exc}", file=sys.stderr)
        return exc.code
    except (lam.LamParseError, crs.CrsParseError) as exc:
        print(f"normbench: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (crs.CrsError, encode.EncodeError, scott.ScottError,
            graphs.GraphError) as exc:
        print(f"normbench: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
