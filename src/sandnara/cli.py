"""Batch command-line front end.

Commands
--------
stabilize   topple a configuration to its stable state
check       recurrent / minanz / top-heavy predicates with optional trace
map         bijections: to-polyomino, to-matrix, to-poset, upsilon, to-dyck,
            each with --inverse
poly        q,t-Narayana polynomials by enumeration or transfer matrix, and
            closed-form series F2..F6
verify      long-running identity checks (symmetry, counts, olson,
            conjecture-a145600, kn-area, abelian, all)

Every command writes a single JSON document (or CSV with --format csv) to
stdout, newline-terminated.  Exit codes: 0 success, 1 verification mismatch,
2 invalid input, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import random
import sys

from . import __version__
from .bivar import BivarPoly
from .config import Check
from .classes import (
    BicompMatrix,
    IntervalOrder,
    config_of_matrix,
    config_of_poset,
    count_minanz,
    count_minimal,
    count_nonzero_star,
    count_sqrec,
    enumerate_minanz,
    is_minanz,
    is_top_heavy,
    matrix_of_config,
    poset_of_matrix,
)
from .errors import ResourceLimit, SandnaraError
from .kn import (
    DyckPath,
    KnConfig,
    bounce_link_check,
    catalan,
    diag,
    diag_from_dyck,
    dyck_area,
    dyck_of,
    enumerate_sorted_recurrent,
    olson_check,
)
from .polyomino import ParaPolyomino, enumerate_para, narayana_number
from .qt import (
    check_mn_symmetry,
    check_qt_symmetry,
    narayana_poly,
    ribbon_swap,
    ribbon_swap_inv,
    series_of_form,
    transfer_matrix_F,
)
from .sandpile import (
    BipartiteConfig,
    burn,
    cell_image,
    config_of_para,
    count_rec,
    enumerate_rec_star,
    is_recurrent,
    stabilize,
    topple_random,
)
from .tables import RATIONAL_FORMS

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _emit(obj: dict, fmt: str = "json") -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        _emit_csv(obj, writer)
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _emit_csv(obj: dict, writer) -> None:
    if "terms" in obj:
        writer.writerow(["q", "t", "c"])
        for term in obj["terms"]:
            writer.writerow([term["q"], term["t"], term["c"]])
    elif "checks" in obj:
        writer.writerow(["name", "holds", "detail", "conjecture"])
        for chk in obj["checks"]:
            writer.writerow(
                [
                    chk.get("name", ""),
                    chk.get("holds", ""),
                    chk.get("detail", ""),
                    chk.get("conjecture", False),
                ]
            )
    else:
        writer.writerow(sorted(obj))
        writer.writerow([json.dumps(obj[k]) for k in sorted(obj)])


def _heights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad height list {text!r}") from exc


def _int_at_least(low: int):
    """An argparse type: an integer >= low, else argparse's exit 2."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1  # rejected below together with the values under low
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _read_input(spec: str) -> dict:
    if spec == "-":
        data = json.loads(sys.stdin.read())
    elif spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = json.loads(spec)
    if not isinstance(data, dict):
        raise ValueError(f"--input must be a JSON object, got {type(data).__name__}")
    return data


def _poly_json(poly: BivarPoly, fmt: str) -> dict:
    if fmt == "matrix":
        return poly.to_matrix_json()
    return poly.to_sparse_json()


# -- command implementations -------------------------------------------------------


def cmd_stabilize(args) -> int:
    cfg = BipartiteConfig(args.m, args.n, args.heights)
    final, counts = stabilize(cfg)
    _emit(
        {
            "m": args.m,
            "n": args.n,
            "heights": list(final.heights),
            "topple_counts": list(counts),
        },
        args.format,
    )
    return EXIT_OK


CHECKS = {"recurrent": is_recurrent, "minanz": is_minanz, "top-heavy": is_top_heavy}


def cmd_check(args) -> int:
    m = args.m if args.m is not None else args.n
    cfg = BipartiteConfig(m, args.n, args.heights)
    out: dict = {"m": m, "n": args.n, "heights": list(cfg.heights)}
    # one burning run: the predicates read the run kept on cfg
    out["result"] = is_recurrent(cfg) and CHECKS[args.what](cfg)
    if args.verbose and cfg.is_stable():
        out["trace"] = burn(cfg).trace.to_json()
    _emit(out, args.format)
    return EXIT_OK


def _map_needs(args) -> None:
    """Reject a map call that passes an argument its direction does not read,
    or lacks one it needs."""
    if args.inverse or args.what == "upsilon":
        needed = ("input",)
    elif args.what == "to-polyomino":
        needed = ("m", "n", "heights")
    else:
        needed = ("n", "heights")
    call = f"map {args.what}{' --inverse' if args.inverse else ''}"
    unread = [
        f"--{name}"
        for name in ("m", "n", "heights", "input")
        if name not in needed and getattr(args, name) is not None
    ]
    if unread:
        raise ValueError(f"{call} does not take {', '.join(unread)}")
    missing = [f"--{name}" for name in needed if getattr(args, name) is None]
    if missing:
        raise ValueError(f"{call} needs {' '.join(missing)}")


def cmd_map(args) -> int:
    _map_needs(args)
    fmt = args.format
    if args.what == "to-polyomino":
        if args.inverse:
            poly = ParaPolyomino.from_json(_read_input(args.input))
            _emit(config_of_para(poly).to_json(), fmt)
        else:
            cfg = BipartiteConfig(args.m, args.n, args.heights)
            cells = cell_image(cfg)
            poly = cells.as_para()
            out = cells.to_json()
            out["is_polyomino"] = poly is not None
            if poly is not None:
                out.update(poly.to_json())
            _emit(out, fmt)
    elif args.what == "to-matrix":
        if args.inverse:
            mat = BicompMatrix.from_json(_read_input(args.input))
            _emit(config_of_matrix(mat).to_json(), fmt)
        else:
            cfg = BipartiteConfig(args.n, args.n, args.heights)
            _emit(matrix_of_config(cfg).to_json(), fmt)
    elif args.what == "to-poset":
        if args.inverse:
            order = IntervalOrder.from_json(_read_input(args.input))
            _emit(config_of_poset(order, order.n + 1).to_json(), fmt)
        else:
            cfg = BipartiteConfig(args.n, args.n, args.heights)
            order = poset_of_matrix(matrix_of_config(cfg))
            _emit(order.to_json(), fmt)
    elif args.what == "upsilon":
        poly = ParaPolyomino.from_json(_read_input(args.input))
        out = ribbon_swap_inv(poly) if args.inverse else ribbon_swap(poly)
        _emit(out.to_json(), fmt)
    else:  # to-dyck
        if args.inverse:
            path = DyckPath.from_json(_read_input(args.input))
            _emit(diag_from_dyck(path).to_json(), fmt)
        else:
            cfg = KnConfig(args.n, args.heights)
            _emit(dyck_of(diag(cfg)).to_json(), fmt)
    return EXIT_OK


def cmd_poly(args) -> int:
    if args.series:
        ignored = [
            option
            for option, given in (
                ("--m", args.m is not None),
                ("--n", args.n is not None),
                ("--method transfer", args.method == "transfer"),
                ("--max-objects", args.max_objects is not None),
                ("--format csv", args.format == "csv"),
            )
            if given
        ]
        if ignored:
            raise ValueError(f"poly --series does not take {', '.join(ignored)}")
        order = 8 if args.order is None else args.order
        series = series_of_form(RATIONAL_FORMS[args.series], order)
        out = {
            "series": args.series,
            "order": order,
            "coefficients": [_poly_json(p, args.format) for p in series.coeffs],
        }
        _emit(out)  # a series is always one JSON document
        return EXIT_OK
    if args.order is not None:
        raise ValueError("poly --order needs --series")
    if args.m is None or args.n is None:
        raise ValueError("poly needs either --series or both --m and --n")
    if args.method == "transfer":
        poly = transfer_matrix_F(args.m, args.n, args.max_objects)[args.n - 1]
    else:
        poly = narayana_poly(args.m, args.n, args.max_objects)
    _emit(_poly_json(poly, args.format), args.format)
    return EXIT_OK


def _verify_symmetry(args) -> list[Check]:
    checks = []
    for s in range(2, args.max_sum + 1):
        for m in range(1, s):
            n = s - m
            checks.append(check_qt_symmetry(m, n, args.max_objects))
            if m < n:
                checks.append(check_mn_symmetry(m, n, args.max_objects))
    # widest box first: its cost estimate is the largest, so an over-cap
    # --transfer-m is refused before any width is computed
    transfer: list[Check] = []
    for m in range(args.transfer_m, 1, -1):
        polys = transfer_matrix_F(m, args.transfer_n, args.max_objects)
        ok = all(p.is_qt_symmetric() for p in polys)
        small = min(6, args.transfer_n)
        agree = all(
            polys[k - 1] == narayana_poly(m, k) for k in range(1, small + 1)
        )
        transfer[:0] = [
            Check(f"qt-symmetry transfer m={m} n<={args.transfer_n}", ok),
            Check(f"transfer==enumeration m={m} n<={small}", agree),
        ]
    return checks + transfer


def _count_check(name: str, got: int, want: int) -> Check:
    return Check(name, got == want, f"enumerated {got}")


def _verify_counts(args) -> list[Check]:
    checks = []
    for s in range(4, args.max + 1):
        for m in range(2, s - 1):
            n = s - m
            ribbons = sum(1 for p in enumerate_para(m, n, args.max_objects) if p.is_ribbon())
            checks.append(_count_check(f"minimal count {m},{n}", ribbons, count_minimal(m, n)))
            stars = minanz_inc = 0
            for cfg in enumerate_rec_star(m, n, args.max_objects):
                stars += 1
                minanz_inc += is_minanz(cfg)
            checks.append(_count_check(f"minanz count {m},{n}", minanz_inc, count_minanz(m, n)))
            checks.append(
                _count_check(
                    f"increasing-recurrent count {m},{n}", stars, narayana_number(m + n - 1, m)
                )
            )
            if args.brute:
                brute = sum(
                    1
                    for t in itertools.product(range(n), repeat=m - 1)
                    for b in itertools.product(range(m), repeat=n)
                    if is_recurrent(BipartiteConfig(m, n, t + b))
                )
                checks.append(
                    _count_check(
                        f"recurrent count (burning filter) {m},{n}", brute, count_rec(m, n)
                    )
                )
    for n in range(2, args.max // 2 + 1):
        got = sum(1 for _ in enumerate_minanz(n, n, args.max_objects))
        checks.append(_count_check(f"square minanz count n={n}", got, count_sqrec(n)))
    return checks


def _verify_olson(args) -> list[Check]:
    checks = []
    for n in range(2, args.max + 1):
        checks.append(olson_check(n, args.max_objects))
        checks.append(bounce_link_check(n, args.max_objects))
        cnt = sum(1 for _ in enumerate_sorted_recurrent(n, args.max_objects))
        checks.append(_count_check(f"sorted recurrent count n={n}", cnt, catalan(n - 1)))
    return checks


def _verify_conjecture(args) -> list[Check]:
    checks = []
    for n in range(2, args.max + 1):
        rep = count_nonzero_star(n, args.max_objects)
        detail = f"enumerated {rep.count}, closed form {rep.formula_value}"
        if not rep.matches:
            detail += " (conjecture-falsifying mismatch; reported, not asserted)"
        checks.append(
            Check(f"conjecture-a145600 n={n}", rep.matches, detail, conjecture=True)
        )
    return checks


def _verify_kn_area(args) -> list[Check]:
    import importlib.resources as resources

    with resources.files("sandnara").joinpath("data/kn_area_relation.json").open() as fh:
        fixture = json.load(fh)
    checks = []
    for n in range(2, args.max + 1):
        consts = set()
        companion_ok = True
        for cfg in enumerate_sorted_recurrent(n, args.max_objects):
            poly = diag(cfg)
            consts.add(poly.area - sum(cfg.heights))
            if poly.area != dyck_area(dyck_of(poly)) + 2 * (n - 1):
                companion_ok = False
        derived = consts.pop() if len(consts) == 1 else None
        expect = fixture["constants"].get(str(n))
        closed = (n - 1) * (6 - n) // 2
        # past the fixture's range the closed form is the only reference
        ok = derived == closed and expect in (None, closed) and companion_ok
        seen = "fixture has no entry" if expect is None else f"fixture {expect}"
        checks.append(
            Check(
                f"kn-area n={n}",
                ok,
                f"derived c({n})={derived}, {seen}, closed form {closed}",
            )
        )
    return checks


def _verify_abelian(args) -> list[Check]:
    rng = random.Random(args.seed)
    m, n = args.m, args.n
    checks = []
    for trial in range(args.samples):
        heights = tuple(rng.randrange(0, 2 * (m + n)) for _ in range(m + n - 1))
        cfg = BipartiteConfig(m, n, heights)
        ok = topple_random(cfg, rng) == stabilize(cfg)
        if not ok:
            checks.append(
                Check(f"abelian trial {trial}", False, f"start {heights}")
            )
    checks.append(
        Check(
            f"abelian property m={m} n={n} ({args.samples} random policies)",
            all(c.holds for c in checks),
        )
    )
    return checks


VERIFY_JOBS = {
    "symmetry": _verify_symmetry,
    "counts": _verify_counts,
    "olson": _verify_olson,
    "conjecture-a145600": _verify_conjecture,
    "kn-area": _verify_kn_area,
    "abelian": _verify_abelian,
}


def cmd_verify(args) -> int:
    jobs = VERIFY_JOBS.values() if args.what == "all" else [VERIFY_JOBS[args.what]]
    checks = [check for job in jobs for check in job(args)]
    hard_failures = [c for c in checks if not c.holds and not c.conjecture]
    out = {
        "checks": [c.to_json() for c in checks],
        "passed": not hard_failures,
        "failures": len(hard_failures),
    }
    _emit(out, args.format)
    return EXIT_OK if not hard_failures else EXIT_MISMATCH


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sandnara", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    top.add_argument("--version", action="version", version=f"sandnara {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def formats(p, *extra):
        p.add_argument("--format", default="json", choices=["json", "csv", *extra])

    p = sub.add_parser("stabilize", help="topple to the stable state")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--heights", type=_heights, required=True)
    formats(p)
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser("check", help="recurrence and class predicates")
    p.add_argument("what", choices=list(CHECKS))
    p.add_argument("--m", type=_positive_int, default=None)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--heights", type=_heights, required=True)
    p.add_argument("--verbose", action="store_true")
    formats(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("map", help="bijections between the combinatorial families")
    p.add_argument(
        "what", choices=["to-polyomino", "to-matrix", "to-poset", "upsilon", "to-dyck"]
    )
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--m", type=_positive_int, default=None)
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--heights", type=_heights, default=None)
    p.add_argument("--input", default=None, help="JSON object, @file, or - for stdin")
    formats(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("poly", help="q,t-Narayana polynomials and series")
    p.add_argument("--m", type=_positive_int, default=None)
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--method", choices=["enum", "transfer"], default="enum")
    p.add_argument("--series", choices=sorted(RATIONAL_FORMS), default=None)
    p.add_argument("--order", type=_nonnegative_int, default=None, help="default 8")
    formats(p, "matrix")
    p.add_argument("--max-objects", type=int, default=None, dest="max_objects")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("verify", help="identity and conjecture verification jobs")
    p.add_argument("what", choices=[*VERIFY_JOBS, "all"])
    p.add_argument(
        "--max", type=_nonnegative_int, default=6, help="size bound for counts/olson/kn checks"
    )
    p.add_argument("--max-sum", type=_nonnegative_int, default=8, dest="max_sum")
    p.add_argument(
        "--brute",
        action="store_true",
        help="also count recurrent states by filtering every stable state",
    )
    p.add_argument("--transfer-m", type=_nonnegative_int, default=0, dest="transfer_m")
    p.add_argument("--transfer-n", type=_positive_int, default=12, dest="transfer_n")
    p.add_argument("--m", type=_positive_int, default=2)
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--samples", type=_positive_int, default=25)
    p.add_argument("--seed", type=int, default=0)
    formats(p)
    p.add_argument("--max-objects", type=int, default=None, dest="max_objects")
    p.set_defaults(func=cmd_verify)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimit as exc:
        sys.stderr.write(json.dumps({"error": "resource-limit", "detail": str(exc)}) + "\n")
        return EXIT_RESOURCE
    except (SandnaraError, ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}) + "\n"
        )
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
