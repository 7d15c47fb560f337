"""The benchmark's workloads: qbip argv, the layers each must exercise, output checks.

Each workload is one ``qbip`` CLI invocation.  Its output check reads the exit
code, the summary line and the ``--out`` file, and counts how many of the
expected checks or rows failed or are missing.  The enumerated and conjecture
outputs must also match a projection recorded from the seed implementation.
A projection keeps only the fields that decide correctness, so per-check
timings, counters or tree JSON added to the reports later do not change it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

RANDOM_CHECKS_PER_TREE = 25  # 5 identities x 5 default points

# sha256 of the sorted projection, recorded from the seed implementation.
RECORDED_DIGESTS = {
    ("enum", 12): "c9714bf91947bd199557b1e57deb7e4fdb3007d28b688463d22d70fce0783a4d",
    ("enum", 6): "0a2c1e3fc33fb9718765021f8d4494bcc72c48ba72f3ac7126b4c3fa226b47f8",
    ("conjecture", 16): "6346562dc3eb91bc5db01acb92e075c3bc91814fff8402a19dc9f677e12ff7b6",
    ("conjecture", 8): "2388d3250602c01145eab1dc6c41f54e9f1b324be1ab6c2d49ea1f88f7e8796c",
}
# (trees, checks) of `verify --enumerate-upto N`; rows of `conjecture --upto N`.
ENUM_COUNTS = {12: (73, 949), 6: (4, 52)}
CONJECTURE_ROWS = {16: 954, 8: 9}

_ENUM_CALLS = (
    "polyalg.poly_mul", "polyalg.poly_add", "polyalg.divexact", "polyalg.poly_gcd",
    "polyalg.ratfun_new", "polyalg.ratfun_mul", "polyalg.ratfun_add",
    "exactla.det_bareiss", "exactla.mat_mul", "exactla.matvec",
    "exactla.inverse_gauss", "exactla.adjugate_int", "exactla.rank_int",
    "treecore.tree_new", "treecore.matched_new", "treecore.distances",
    "treecore.alternating_reach", "treecore.diff", "treecore.attach_p2",
    "treecore.detach_p2", "treecore.canonical_code",
    "treecore.enumerate_nonsingular",
    "qmatrices.build_qB", "qmatrices.build_E", "qmatrices.build_qL",
    "qmatrices.build_full_qD", "qmatrices.build_full_eD",
    "qmatrices.qsigned_degree_vector", "qmatrices.qtau", "qmatrices.bdq_det",
    "qmatrices.bdq_recursive", "qmatrices.inverse_E_formula",
    "qmatrices.inverse_qB_formula", "qmatrices.eval_matrix",
    "verify.check_det_E", "verify.check_det_qL", "verify.check_bdq",
    "verify.check_sum_mu", "verify.check_row_col_sums", "verify.check_B_tau",
    "verify.check_lemma_111", "verify.check_inverse_E", "verify.check_inverse_qB",
    "verify.check_attach_update", "verify.check_block_decomposition",
    "verify.check_q1_properties", "verify.check_full_dq_ed", "verify.run_suite",
    "cli.main",
)
_RANDOM_CALLS = (
    "polyalg.poly_mul", "polyalg.poly_add",
    "treecore.tree_new", "treecore.matched_new", "treecore.distances",
    "treecore.alternating_reach", "treecore.diff", "treecore.attach_p2",
    "treecore.detach_p2", "treecore.canonical_code",
    "treecore.random_nonsingular",
    "qmatrices.build_qL", "qmatrices.qtau", "qmatrices.bdq_recursive",
    "verify.evaluate_identities_at", "cli.main",
)
_CONJECTURE_CALLS = (
    "polyalg.poly_mul", "polyalg.poly_add", "polyalg.divexact", "polyalg.poly_gcd",
    "exactla.det_bareiss", "exactla.charpoly_exact", "exactla.count_real_roots",
    "exactla.conjecture_evidence",
    "treecore.tree_new", "treecore.matched_new", "treecore.alternating_reach",
    "treecore.attach_p2", "treecore.canonical_code",
    "treecore.enumerate_nonsingular",
    "qmatrices.build_qL", "qmatrices.eval_matrix", "cli.main",
)


@dataclass(frozen=True)
class Outcome:
    expected: int  # checks or rows the run should produce
    failed: int  # of those: failed, missing, or unverifiable
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "enum", "random" or "conjecture"
    size: int  # vertex bound for enum and conjecture, p for random
    trials: int = 0
    must_call: tuple = ()  # traced layer functions that must record calls

    def argv(self, seed: int, out_path: str) -> list[str]:
        if self.kind == "enum":
            return ["verify", "--enumerate-upto", str(self.size), "--out", out_path]
        if self.kind == "random":
            return ["verify", "--random", f"{self.size},{self.trials}",
                    "--seed", str(seed), "--out", out_path]
        return ["conjecture", "--upto", str(self.size), "--out", out_path]

    def check(self, rc: int, stdout: str, out_text: str | None) -> Outcome:
        """Count failed or missing checks (rows) and list what is wrong."""
        if self.kind == "enum":
            trees, expected = ENUM_COUNTS[self.size]
        elif self.kind == "random":
            trees, expected = self.trials, RANDOM_CHECKS_PER_TREE * self.trials
        else:
            expected = CONJECTURE_ROWS[self.size]
        rows = self.project(out_text)
        if rows is None:
            return Outcome(expected, expected, "no readable --out output")
        if self.kind == "conjecture":
            failed = sum(1 for r in rows if not (r[3] and r[4]))
        else:
            failed = sum(1 for r in rows if not r[3])
        failed += max(0, expected - len(rows))
        problems = [f"{failed} of {expected} failed or missing"] if failed else []
        if len(rows) != expected:
            problems.append(f"{len(rows)} rows, want {expected}")
        recorded = RECORDED_DIGESTS.get((self.kind, self.size))
        if recorded is not None and digest(rows) != recorded:
            problems.append("projection differs from the recorded one")
        if self.kind != "conjecture":
            want = f"TREES {trees} CHECKS {expected} FAIL 0"
            if stdout.splitlines()[:1] != [want]:
                problems.append(f"summary is not {want!r}")
        if rc != 0:
            problems.append(f"exit code {rc}")
        if problems and not failed:
            failed = expected  # the output is wrong somewhere: nothing counts
        return Outcome(expected, failed, "; ".join(problems) or "ok")


    def project(self, out_text: str | None) -> list | None:
        """Sorted projection of an --out file, or None if it is unreadable."""
        projection = (conjecture_projection if self.kind == "conjecture"
                      else verify_projection)
        try:
            return sorted(projection(out_text))
        except (TypeError, ValueError, KeyError):
            return None


def verify_projection(out_text: str) -> list:
    """(tree, p, check, pass, skipped) of each check in a `verify --out` file."""
    return [
        [r["tree"], r["p"], c["name"], c["pass"], c.get("skipped")]
        for r in json.loads(out_text)
        for c in r["checks"]
    ]


def conjecture_projection(out_text: str) -> list:
    """(tree, p, charpoly, diagonalizable, nonneg, real roots) of each row."""
    return [
        [r["tree"], r["p"], r["charpoly"], r["diagonalizable"],
         r["all_eigen_nonneg"], r["real_root_count"]]
        for r in map(json.loads, out_text.splitlines())
    ]


def digest(rows) -> str:
    """sha256 of a sorted projection."""
    body = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


WORKLOADS = {
    w.name: w for w in (
        Workload("enum-12", "enum", 12, must_call=_ENUM_CALLS),
        Workload("random-100", "random", 100, trials=3, must_call=_RANDOM_CALLS),
        Workload("conjecture-16", "conjecture", 16, must_call=_CONJECTURE_CALLS),
    )
}
# Same code paths at a few seconds in all, for the benchmark's own tests.
SMOKE = {
    "enum-12": Workload("enum-6", "enum", 6, must_call=_ENUM_CALLS),
    "random-100": Workload("random-10", "random", 10, trials=1,
                           must_call=_RANDOM_CALLS),
    "conjecture-16": Workload("conjecture-8", "conjecture", 8,
                              must_call=_CONJECTURE_CALLS),
}
