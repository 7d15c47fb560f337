"""Command-line front end.

Exit codes: 0 = success / all checks pass, 1 = a mathematical check failed
(witness emitted), 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import exactla, qmatrices, treecore, verify
from .exactla import Matrix, SingularMatrix, Vector
from .polyalg import NotDivisible, PoleAtPoint
from .qmatrices import BdqZero
from .treecore import NotATree, NotNonsingular


class UsageError(Exception):
    pass


def _parse_rational(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from None


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _dump(obj: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(obj)
            if not obj.endswith("\n"):
                fh.write("\n")
    else:
        print(obj)


def _to_jsonable(x):
    if isinstance(x, (Matrix, Vector)):
        return x.to_json()
    if isinstance(x, dict):
        return {k: _to_jsonable(v) for k, v in x.items()}
    return x


def _emit(obj, fmt: str, at: Fraction | None, out_path: str | None) -> None:
    if fmt == "json":
        _dump(json.dumps(_to_jsonable(obj), sort_keys=True, separators=(",", ":")),
              out_path)
        return
    if fmt == "csv":
        if at is None:
            raise UsageError("csv output needs --at (cells are exact rationals)")
        lines = []
        if isinstance(obj, Matrix):
            for row in obj.entries:
                lines.append(",".join(str(e) for e in row))
        elif isinstance(obj, Vector):
            lines.append(",".join(str(e) for e in obj))
        else:
            raise UsageError("csv output applies to matrices and vectors")
        _dump("\n".join(lines), out_path)
        return
    # pretty
    if isinstance(obj, Matrix):
        cells = [[str(e) for e in row] for row in obj.entries]
        widths = [max(len(r[j]) for r in cells) for j in range(obj.cols)]
        lines = [
            "[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]"
            for row in cells
        ]
        _dump("\n".join(lines), out_path)
    elif isinstance(obj, Vector):
        _dump("( " + "  ".join(str(e) for e in obj) + " )", out_path)
    elif isinstance(obj, dict):
        _dump("\n".join(f"{k}: {v}" for k, v in obj.items()), out_path)
    else:
        _dump(str(obj), out_path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

MATRIX_CHOICES = ("qB", "E", "qL", "qD", "eD", "tau")


def cmd_show(args) -> int:
    name = args.matrix
    at = _parse_rational(args.at[0]) if args.at else None
    if name in ("qD", "eD"):
        tree = treecore.Tree.from_json(_read_json(args.tree))
        obj = qmatrices.build_full_qD(tree) if name == "qD" else qmatrices.build_full_eD(tree)
    else:
        td = qmatrices.TreeData(treecore.load_tree_json(_read_json(args.tree)))
        if name in ("qB", "E", "qL"):
            obj = getattr(td, name)
        elif name == "tau":
            tau_l, tau_r = td.tau
            if at is not None:
                tau_l = qmatrices.eval_vector(tau_l, at)
                tau_r = qmatrices.eval_vector(tau_r, at)
            _emit({"tau_l": tau_l, "tau_r": tau_r}, args.format, at, args.out)
            return 0
        elif name.startswith("mu:"):
            try:
                v = int(name.split(":", 1)[1])
            except ValueError:
                raise UsageError(f"bad vertex in {name!r}") from None
            if not 0 <= v < td.mt.tree.n:
                raise UsageError(f"vertex {v} out of range")
            obj = td.mu(v)
        else:
            raise UsageError(f"unknown matrix {name!r}")
    if at is not None and isinstance(obj, (Matrix, Vector)):
        obj = (qmatrices.eval_matrix(obj, at) if isinstance(obj, Matrix)
               else qmatrices.eval_vector(obj, at))
    _emit(obj, args.format, at, args.out)
    return 0


def cmd_invert(args) -> int:
    td = qmatrices.TreeData(treecore.load_tree_json(_read_json(args.tree)))
    at = _parse_rational(args.at[0]) if args.at else None
    if args.matrix == "E":
        if at is not None and at in (0, 1, -1):
            raise UsageError(
                f"q = {at} excluded: the exponential matrix "
                "is invertible only for q != 0, 1, -1"
            )
        inv = qmatrices.inverse_E_formula(td)
    elif args.matrix == "qB":
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
    else:
        raise UsageError("invert supports --matrix E or qB")
    payload = inv if at is None else qmatrices.eval_matrix(inv, at)
    if args.oracle:
        oracle = exactla.inverse_gauss(getattr(td, args.matrix))
        equal = verify._first_mismatch(inv, oracle) is None
        out = {"inverse": payload, "oracle": oracle if at is None
               else qmatrices.eval_matrix(oracle, at), "equal": equal}
        _emit(out, args.format, at, args.out)
        return 0 if equal else 1
    _emit(payload, args.format, at, args.out)
    return 0


def cmd_verify(args) -> int:
    sources = [s for s in (args.tree, args.enumerate_upto, args.random) if s is not None]
    if len(sources) != 1:
        raise UsageError("need exactly one of --tree, --enumerate-upto, --random")
    if args.tree is not None:
        mt = treecore.load_tree_json(_read_json(args.tree))
        reports = [verify.run_suite(mt)]
    elif args.enumerate_upto is not None:
        if args.enumerate_upto < 2 or args.enumerate_upto % 2:
            raise UsageError("--enumerate-upto needs an even bound >= 2")
        if args.enumerate_upto // 2 > treecore.DEFAULT_ENUM_BOUND:
            raise UsageError(
                f"--enumerate-upto is capped at {2 * treecore.DEFAULT_ENUM_BOUND} vertices"
            )
        if args.threads < 1:
            raise UsageError("--threads needs at least 1")
        reports = verify.run_enumerated(args.enumerate_upto, threads=args.threads)
    else:
        try:
            p_str, trials_str = args.random.split(",", 1)
            p, trials = int(p_str), int(trials_str)
        except ValueError:
            raise UsageError("--random wants 'p,trials'") from None
        points = ([_parse_rational(x) for x in args.at]
                  if args.at else verify.DEFAULT_Q_POINTS)
        try:
            reports = verify.run_random(p, trials, args.seed, points)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if args.out:
        body = json.dumps([r.to_json() for r in reports],
                          sort_keys=True, separators=(",", ":"))
        with open(args.out, "w") as fh:
            fh.write(body + "\n")
    print(verify.summary_line(reports))
    for report in reports:
        bad = report.first_failure()
        if bad is not None:
            print(json.dumps({
                "tree": report.tree_code.hex(),
                "check": bad.name,
                "witness": bad.witness,
            }, sort_keys=True))
            return 1
    return 0


def cmd_enum(args) -> int:
    if args.p is None:
        raise UsageError("enum needs --p")
    try:
        trees = treecore.enumerate_nonsingular(args.p)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    lines = [
        json.dumps(t.to_json(), sort_keys=True, separators=(",", ":"))
        for t in trees
    ]
    _dump("\n".join(lines), args.out)
    return 0


def cmd_gen(args) -> int:
    if args.p is None:
        raise UsageError("gen needs --p")
    if args.p < 1:
        raise UsageError("--p must be >= 1")
    mt = treecore.random_nonsingular(args.p, args.seed)
    _dump(json.dumps(mt.to_json(), sort_keys=True, separators=(",", ":")), args.out)
    return 0


def cmd_conjecture(args) -> int:
    if args.upto is None or args.upto < 2 or args.upto % 2:
        raise UsageError("conjecture needs --upto 2p with 2p >= 2")
    if args.upto // 2 > treecore.DEFAULT_ENUM_BOUND:
        raise UsageError(
            f"--upto is capped at {2 * treecore.DEFAULT_ENUM_BOUND} vertices"
        )
    rows = []
    counterexample = None
    for p in range(1, args.upto // 2 + 1):
        for mt in treecore.enumerate_nonsingular(p):
            lap = qmatrices.eval_matrix(qmatrices.build_qL(mt), Fraction(1))
            evidence = exactla.conjecture_evidence(lap.map(int))
            row = {
                "tree": treecore.canonical_code(mt.tree).hex(),
                "p": p,
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
        body = "\n".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) for r in rows
        )
    _dump(body, args.out)
    if counterexample is not None:
        print(json.dumps(counterexample, sort_keys=True), file=sys.stderr)
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
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tree_required=False):
        p.add_argument("--tree", required=tree_required,
                       help="path to a tree JSON file")
        p.add_argument("--at", action="append", metavar="a/b",
                       help="rational evaluation point (repeatable where it makes sense)")
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p_show = sub.add_parser("show", help="emit a matrix or vector of a tree")
    common(p_show, tree_required=True)
    p_show.add_argument("--matrix", required=True,
                        help="one of qB, E, qL, qD, eD, tau, mu:<vertex>")
    p_show.set_defaults(fn=cmd_show)

    p_inv = sub.add_parser("invert", help="emit a closed-form inverse")
    common(p_inv, tree_required=True)
    p_inv.add_argument("--matrix", required=True, choices=("qB", "E"))
    p_inv.add_argument("--oracle", action="store_true",
                       help="also run the elimination oracle and compare")
    p_inv.set_defaults(fn=cmd_invert)

    p_ver = sub.add_parser("verify", help="run the identity suite")
    common(p_ver)
    p_ver.add_argument("--enumerate-upto", type=int, metavar="N",
                       help="all nonsingular trees with at most N vertices")
    p_ver.add_argument("--random", metavar="p,trials",
                       help="random trees evaluated at exact rational points")
    p_ver.add_argument("--seed", type=int, default=1)
    p_ver.add_argument("--threads", type=int, default=1, help="worker processes")
    p_ver.set_defaults(fn=cmd_verify)

    p_enum = sub.add_parser("enum", help="enumerate nonsingular trees, one JSON per line")
    p_enum.add_argument("--p", type=int, help="number of matching pairs")
    p_enum.add_argument("--out")
    p_enum.set_defaults(fn=cmd_enum)

    p_gen = sub.add_parser("gen", help="generate one random nonsingular tree")
    p_gen.add_argument("--p", type=int, help="number of matching pairs")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--out")
    p_gen.set_defaults(fn=cmd_gen)

    p_con = sub.add_parser("conjecture",
                           help="exact spectral evidence for the q=1 Laplacian")
    p_con.add_argument("--upto", type=int, metavar="N",
                       help="all nonsingular trees with at most N vertices")
    p_con.add_argument("--format", choices=("json", "pretty"), default="json")
    p_con.add_argument("--out")
    p_con.set_defaults(fn=cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, NotATree, NotNonsingular, PoleAtPoint, BdqZero,
            NotDivisible, SingularMatrix, OSError, UnicodeDecodeError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
