"""Command-line front end.

``--tree`` reads tree JSON: an object with ``edges``, a list of [u, v]
vertex-id pairs on the ids 0..n-1.  It may add ``labels`` ({"L": [...],
"R": [...]}, the pair order) with ``matching`` (the same pairs as edges)
beside it, as ``gen`` and ``enum`` write; without ``labels`` the standard
labeling is derived.  ``show --matrix qD|eD`` takes any tree given by
``edges`` alone; any other input or use needs a perfect matching.

Exit codes: 0 = success / all checks pass, 1 = a mathematical check failed
(witness emitted), 2 = usage or input error.  A reader that closes stdout
early does not change the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import exactla, qmatrices, treecore, verify
from .exactla import Matrix, SingularMatrix, Vector
from .polyalg import PoleAtPoint
from .treecore import NotATree, NotNonsingular


class UsageError(Exception):
    pass


def _parse_rational(text: str) -> Fraction:
    """An argparse type: an exact rational "a" or "a/b"."""
    try:
        num, slash, den = text.partition("/")
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}") from None


def _vertex_bound(text: str) -> int:
    """An argparse type: an even vertex bound within the enumeration cap."""
    try:
        return treecore.check_vertex_bound(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_json(path: str):
    """The file's JSON; what the decoder rejects (syntax, bytes, depth, digits) is a UsageError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise UsageError(str(exc)) from None


def _json(obj) -> str:
    """The compact JSON of every data output; other objects encode via to_json."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=lambda x: x.to_json())


def _check_output(args) -> None:
    """Raise UsageError if --out names a path that cannot be written, or if
    csv is asked for without --at or of more than one matrix or vector.

    main calls it before the command runs, so a long run never ends on it.
    """
    path = args.out
    if path:
        parent = os.path.dirname(os.path.abspath(path))
        target = path if os.path.exists(path) else parent
        if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(target, os.W_OK):
            raise UsageError(f"cannot write --out {path}")
    if getattr(args, "format", None) == "csv":
        if not args.at:
            raise UsageError("csv output needs --at (cells are exact rationals)")
        if args.matrix == "tau" or getattr(args, "oracle", False):
            raise UsageError("csv output applies to matrices and vectors")


def _dump(text: str, out_path: str | None = None) -> None:
    """Write text and a newline to out_path, or to stdout.

    A reader that closes stdout early ends the output, not the command: fd 1
    is pointed at os.devnull and the command goes on to its verdict.
    """
    if out_path:
        with open(out_path, "w") as fh:
            print(text, file=fh)
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _evaluated(obj, at: Fraction | None):
    """obj with every matrix and vector in it evaluated at q = at (if given)."""
    if isinstance(obj, dict):
        return {k: _evaluated(v, at) for k, v in obj.items()}
    if at is None or not isinstance(obj, (Matrix, Vector)):
        return obj
    return (qmatrices.eval_matrix if isinstance(obj, Matrix) else qmatrices.eval_vector)(obj, at)


def _emit(obj, fmt: str, at: Fraction | None, out_path: str | None) -> None:
    """Write obj, evaluated at q = at when given, as json, csv or pretty."""
    obj = _evaluated(obj, at)
    if fmt == "csv":  # one matrix or vector at a point, as _check_output ensures
        rows = obj.entries if isinstance(obj, Matrix) else [obj]
        text = "\n".join(",".join(str(e) for e in row) for row in rows)
    else:
        text = _json(obj) if fmt == "json" else _pretty(obj)
    _dump(text, out_path)


def _pretty(obj) -> str:
    """A matrix as aligned rows, a vector on one line, a dict key by key."""
    if isinstance(obj, Matrix):
        cells = [[str(e) for e in row] for row in obj.entries]
        widths = [max(len(r[j]) for r in cells) for j in range(obj.cols)]
        return "\n".join(
            "[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]"
            for row in cells
        )
    if isinstance(obj, Vector):
        return "( " + "  ".join(str(e) for e in obj) + " )"
    if isinstance(obj, dict):  # a matrix's rows start on the line after its key
        return "\n".join(
            f"{k}:\n{_pretty(v)}" if isinstance(v, Matrix) else f"{k}: {_pretty(v)}"
            for k, v in obj.items()
        )
    return str(obj)


def _one_point(args) -> Fraction | None:
    """The evaluation point of show and invert: --at at most once."""
    if args.at and len(args.at) > 1:
        raise UsageError(f"{args.command} takes --at at most once")
    return args.at[0] if args.at else None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_show(args) -> int:
    name = args.matrix
    at = _one_point(args)
    if name in ("qD", "eD"):
        data = _read_json(args.tree)  # labels or matching are read as every other use reads them
        keyed = isinstance(data, dict) and data.keys() & {"labels", "matching"}
        dist = treecore.distances(treecore.MatchedTree.from_json(data).tree if keyed
                                  else treecore.Tree.from_json(data))
        obj = qmatrices.build_full_qD(dist) if name == "qD" else qmatrices.build_full_eD(dist)
    else:
        td = qmatrices.TreeData(treecore.MatchedTree.from_json(_read_json(args.tree)))
        if name in ("qB", "E", "qL"):
            obj = getattr(td, name)
        elif name == "tau":
            obj = dict(zip(("tau_l", "tau_r"), td.tau))
        elif name.startswith("mu:"):
            try:
                v = int(name.split(":", 1)[1])
            except ValueError:
                raise UsageError(f"bad vertex in {name!r}") from None
            if not 0 <= v < td.mt.tree.n:
                raise UsageError(f"vertex {v} out of range")
            obj = qmatrices.qsigned_degree_vector(td, v)
        else:
            raise UsageError(f"unknown matrix {name!r}")
    _emit(obj, args.format, at, args.out)
    return 0


def cmd_invert(args) -> int:
    td = qmatrices.TreeData(treecore.MatchedTree.from_json(_read_json(args.tree)))
    at = _one_point(args)
    if args.matrix == "E":
        if at in verify.EXCLUDED_POINTS:
            raise UsageError(
                f"q = {at} excluded: the exponential matrix "
                "is invertible only for q != 0, 1, -1"
            )
        inv = qmatrices.inverse_E_formula(td)
    else:
        if at is not None and at in (0, -1):
            raise UsageError(
                f"q = {at} excluded: the q-distance matrix "
                "inverse needs q != 0, -1"
            )
        if at is not None and td.bd.eval_at(at) == 0:
            raise UsageError(
                f"q = {at} excluded: the distance index "
                f"({td.bd}) vanishes there"
            )
        inv = qmatrices.inverse_qB_formula(td)
    if not args.oracle:
        _emit(inv, args.format, at, args.out)
        return 0
    oracle = exactla.inverse_gauss(getattr(td, args.matrix))
    equal = inv == oracle
    _emit({"inverse": inv, "oracle": oracle, "equal": equal}, args.format, at, args.out)
    return 0 if equal else 1


def cmd_verify(args) -> int:
    for option, mode in (("at", "random"), ("seed", "random"),
                         ("threads", "enumerate_upto")):
        if getattr(args, option) is not None and getattr(args, mode) is None:
            raise UsageError(f"--{option} applies to --{mode.replace('_', '-')} only")
    if args.tree is not None:
        mt = treecore.MatchedTree.from_json(_read_json(args.tree))
        reports = [verify.run_suite(mt)]
    elif args.enumerate_upto is not None:
        threads = 1 if args.threads is None else args.threads
        if threads < 1:
            raise UsageError("--threads needs at least 1")
        reports = verify.run_enumerated(args.enumerate_upto, threads=threads)
    else:
        p, trials, points = _random_spec(args)
        seed = 1 if args.seed is None else args.seed
        reports = verify.run_random(p, trials, seed, points)
    if args.out:  # a report is a tuple, which json.dumps writes as an array
        _dump(_json([r.to_json() for r in reports]), args.out)
    _dump(verify.summary_line(reports))
    for report in reports:
        bad = report.first_failure()
        if bad is not None:
            _dump(_json({
                "tree": report.tree_code.hex(),
                "check": bad.name,
                "witness": bad.witness,
            }))
            return 1
    return 0


def _random_spec(args) -> tuple:
    """(p, trials, points) of verify --random, each checked before the run."""
    try:
        p, trials = map(int, args.random.split(","))
    except ValueError:
        raise UsageError("--random wants 'p,trials'") from None
    if trials < 1:
        raise UsageError("need at least one random trial")
    try:
        points = verify._rational_points(args.at or verify.DEFAULT_Q_POINTS)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if p < 1:
        raise UsageError("p must be >= 1")
    return p, trials, points


def cmd_enum(args) -> int:
    _dump("\n".join(map(_json, treecore.enumerate_nonsingular(args.p))), args.out)
    return 0


def cmd_gen(args) -> int:
    if args.p < 1:
        raise UsageError("--p must be >= 1")
    _dump(_json(treecore.random_nonsingular(args.p, args.seed)), args.out)
    return 0


def cmd_conjecture(args) -> int:
    rows = []
    counterexample = None
    for mt in treecore.enumerate_upto(args.upto):
        evidence = exactla.conjecture_evidence(qmatrices.TreeData(mt).qL1)
        row = {
            "tree": treecore.canonical_code(mt.tree).hex(),
            "p": mt.p,
            "diagonalizable": evidence["diagonalizable"],
            "all_eigen_nonneg": evidence["all_eigen_nonneg"],
            "real_root_count": evidence["real_root_count"],
            "charpoly": evidence["charpoly"].format("x"),
        }
        rows.append(row)
        if not (evidence["diagonalizable"] and evidence["all_eigen_nonneg"]):
            row["witness_tree"] = mt.to_json()
            counterexample = row
    if args.format == "pretty":
        body = "\n".join(
            f"p={r['p']} {r['tree'][:24]:<26} diag={r['diagonalizable']} "
            f"nonneg={r['all_eigen_nonneg']} charpoly={r['charpoly']}"
            for r in rows
        )
    else:
        body = "\n".join(_json(r) for r in rows)
    _dump(body, args.out)
    if counterexample is not None:
        print(_json(counterexample), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbip",
        description="Exact q-analogue bipartite distance matrices of matched "
                    "trees: builders, inverses, identity verification.",
        epilog='Tree JSON (--tree): {"edges": [[u, v], ...]} on the vertex ids '
               '0..n-1, optionally with "labels" {"L": [...], "R": [...]} and '
               '"matching" [[l, r], ...] beside it.  Exit codes: 0 = pass, '
               "1 = a check failed (witness emitted), 2 = usage or input error; "
               "a closed stdout leaves the code unchanged.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sources=None, formats=("json", "csv", "pretty")):
        (sources or p).add_argument("--tree", required=sources is None,
                                    help="path to a tree JSON file")
        p.add_argument("--at", action="append", metavar="a/b", type=_parse_rational,
                       help="rational evaluation point (verify: --random only, repeatable)")
        if formats:
            p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p_show = sub.add_parser("show", help="emit a matrix or vector of a tree")
    common(p_show)
    p_show.add_argument("--matrix", required=True,
                        help="one of qB, E, qL, qD, eD, tau, mu:<vertex>")
    p_show.set_defaults(fn=cmd_show)

    p_inv = sub.add_parser("invert", help="emit a closed-form inverse")
    common(p_inv)
    p_inv.add_argument("--matrix", required=True, choices=("qB", "E"))
    p_inv.add_argument("--oracle", action="store_true",
                       help="also run the elimination oracle and compare")
    p_inv.set_defaults(fn=cmd_invert)

    p_ver = sub.add_parser("verify", help="run the identity suite")
    sources = p_ver.add_mutually_exclusive_group(required=True)
    common(p_ver, sources, formats=())
    sources.add_argument("--enumerate-upto", type=_vertex_bound, metavar="N",
                       help="all nonsingular trees with at most N vertices")
    sources.add_argument("--random", metavar="p,trials",
                       help="random trees evaluated at exact rational points")
    p_ver.add_argument("--seed", type=int,
                       help="first seed of --random (default 1)")
    p_ver.add_argument("--threads", type=int,
                       help="worker processes of --enumerate-upto (default 1)")
    p_ver.set_defaults(fn=cmd_verify)

    p_enum = sub.add_parser("enum", help="enumerate nonsingular trees, one JSON per line")
    p_enum.add_argument("--p", type=int, required=True, metavar="P",
                        choices=range(1, treecore.DEFAULT_ENUM_BOUND + 1),
                        help="number of matching pairs")
    p_enum.add_argument("--out")
    p_enum.set_defaults(fn=cmd_enum)

    p_gen = sub.add_parser("gen", help="generate one random nonsingular tree")
    p_gen.add_argument("--p", type=int, required=True, help="number of matching pairs")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--out")
    p_gen.set_defaults(fn=cmd_gen)

    p_con = sub.add_parser("conjecture",
                           help="exact spectral evidence for the q=1 Laplacian")
    p_con.add_argument("--upto", type=_vertex_bound, required=True, metavar="N",
                       help="all nonsingular trees with at most N vertices")
    p_con.add_argument("--format", choices=("json", "pretty"), default="json")
    p_con.add_argument("--out")
    p_con.set_defaults(fn=cmd_conjecture)

    return parser


def _glue_negative_points(argv: list[str]) -> list[str]:
    """argv with each "--at -a/b" as "--at=-a/b", and so for its abbreviation "--a".

    argparse reads "-2" as a value but "-1/2" as an unknown option, since the
    only negative values it recognises are integers and decimals.
    """
    glued = []
    for arg in argv:
        if glued and glued[-1] in ("--a", "--at") and re.fullmatch(r"-\d+/\d+", arg):
            glued[-1] = f"{glued[-1]}={arg}"
        else:
            glued.append(arg)
    return glued


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _glue_negative_points(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_output(args)
        return args.fn(args)
    except (UsageError, NotATree, NotNonsingular, PoleAtPoint, SingularMatrix,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
