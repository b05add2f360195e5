"""Command-line front end.

Subcommands: ``selftest`` (``verify`` over the whole registry), ``verify``
(a suite restricted to chosen inequalities, optionally on fixed bounds),
``compare`` (constant ratios), ``search`` (tightness search), and ``gen``
(emit a sampled instance).

Exit codes: 0 all checks passed, 1 at least one asserted inequality
failed (the report is still written), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import textwrap
from dataclasses import asdict

from .constants import BOUND_FIELDS, KIND_FIELDS, CaseParams, SandwichBounds
from .errors import ConfigInvalid, OpineqError
from .io import dumps_canonical, instance_to_obj
from .sampler import sample_instance
from .suite import DEFAULT_DIMS, SuiteConfig, run_suite, tightness_search
from .verifier import DEFAULT_TOL, compare_constants, get_entry, registry_ids

SELFTEST_REPORT = "opineq-selftest.json"


def _list_of(kind, name: str):
    """An argparse type for a comma-separated list of kind(...) values."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(x) for x in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated {name} list: {text!r}")
    return parse


_float_list, _int_list = _list_of(float, "float"), _list_of(int, "integer")


def _id_list(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _add_bounds_flags(p: argparse.ArgumentParser):
    g = p.add_argument_group("bounds (pick one family)")
    g.add_argument("--m", type=float, help="outer lower bound")
    g.add_argument("--mp", type=float, help="inner lower bound m'")
    g.add_argument("--Mp", type=float, help="inner upper bound M'")
    g.add_argument("--M", type=float, help="outer upper bound")
    g.add_argument("--m1", type=float, help="sqrt-scale lower bound of A")
    g.add_argument("--M1", type=float, help="sqrt-scale upper bound of A")
    g.add_argument("--m2", type=float, help="sqrt-scale lower bound of B")
    g.add_argument("--M2", type=float, help="sqrt-scale upper bound of B")


def _add_suite_flags(p: argparse.ArgumentParser, trials: int, out: str | None):
    """The flags selftest and verify share, with their trials and out defaults."""
    p.add_argument("--n", type=_int_list, default=DEFAULT_DIMS, metavar="LIST")
    p.add_argument("--trials", type=int, default=trials, help="cases per (id, n) pair")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=out)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _bounds_from_args(args, ids=()) -> SandwichBounds | None:
    """Fixed bounds from the flags: the kind whose fields are exactly the
    flags given.  The two sandwich kinds share their fields; the first one
    every selected inequality accepts wins (sandwich_B_low with no ids).
    No bounds flags -> None (random draws).
    """
    given = {f: getattr(args, f) for f in BOUND_FIELDS if getattr(args, f) is not None}
    if not given:
        return None
    kinds = [kind for kind, fields in KIND_FIELDS.items() if set(fields) == set(given)]
    if not kinds:
        families = dict.fromkeys(" ".join(f"--{f}" for f in fields) for fields in KIND_FIELDS.values())
        raise ConfigInvalid(f"give one bounds family: {', '.join(families)}")
    if len(kinds) > 1:
        kinds = [kind for kind in kinds if all(kind in get_entry(i).kinds for i in ids)]
        if not kinds:
            raise ConfigInvalid("the selected inequalities do not share a sandwich orientation")
    return SandwichBounds(kinds[0], **given)


def _emit(text: str, out: str | None):
    if out:
        # an --out that cannot be written is bad input, not a failed check
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigInvalid(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_suite(args) -> int:
    """selftest and verify: selftest is verify over the whole registry
    (ids None) with no grids, bounds or forced endpoints."""
    cfg = SuiteConfig(
        ids=args.ineq,
        dims=args.n,
        trials=args.trials,
        seed=args.seed,
        tol=args.tol,
        force_endpoints=args.force_endpoints,
        fixed_bounds=_bounds_from_args(args, args.ineq),
        nu_grid=args.nu,
        p_grid=args.p,
        alpha_grid=args.alpha,
        workers=args.workers,
    )
    report = run_suite(cfg)
    _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.out)
    if args.out:
        print(f"report written to {args.out}; {len(report.cases)} cases, "
              f"{report.total_failures()} failures ({report.asserted_failures} on asserted inequalities)")
    return 1 if report.asserted_failures else 0


def _cmd_compare(args) -> int:
    bounds = _bounds_from_args(args)
    if bounds is None:
        raise ConfigInvalid("compare needs bounds flags")
    params = CaseParams(nu=args.nu, p=args.p, alpha=args.alpha)
    ratio = compare_constants(args.a, args.b, bounds, params)
    print(f"{ratio:.12g}")
    return 0


def _cmd_search(args) -> int:
    record = tightness_search(
        args.ineq,
        budget=args.budget,
        seed=args.seed,
        n=args.n,
        nu=args.nu,
        tol=args.tol,
    )
    _emit(dumps_canonical(asdict(record)), args.out)
    if record.holds or args.ineq == "scalar-lemma":
        return 0
    return 1 if get_entry(args.ineq).asserted else 0


def _cmd_gen(args) -> int:
    bounds = _bounds_from_args(args)
    if bounds is None:
        bounds = SandwichBounds.common(1.0, 4.0)
    inst = sample_instance(bounds, args.n, args.seed, args.force_endpoints)
    _emit(dumps_canonical(instance_to_obj(inst)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ids = textwrap.fill(", ".join(registry_ids()), width=78, initial_indent="  ",
                        subsequent_indent="  ", break_on_hyphens=False)
    parser = argparse.ArgumentParser(
        prog="opineq",
        description="Numerical verification of reverse operator-mean inequalities.",
        epilog="registry ids:\n" + ids,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    st = sub.add_parser("selftest", help="run the built-in full-registry suite")
    _add_suite_flags(st, trials=100, out=SELFTEST_REPORT)
    st.set_defaults(fn=_cmd_suite, ineq=None, nu=None, p=None, alpha=None,
                    force_endpoints=False, **dict.fromkeys(BOUND_FIELDS))

    vf = sub.add_parser("verify", help="run a suite over chosen inequalities")
    vf.add_argument("--ineq", type=_id_list, required=True, metavar="ID[,ID...]")
    _add_suite_flags(vf, trials=10, out=None)
    vf.add_argument("--nu", type=_float_list, default=None, metavar="LIST")
    vf.add_argument("--p", type=_float_list, default=None, metavar="LIST")
    vf.add_argument("--alpha", type=_float_list, default=None, metavar="LIST")
    vf.add_argument("--force-endpoints", action="store_true")
    _add_bounds_flags(vf)
    vf.set_defaults(fn=_cmd_suite)

    cp = sub.add_parser("compare", help="ratio of two bound constants on shared bounds")
    cp.add_argument("--a", required=True, metavar="ID")
    cp.add_argument("--b", required=True, metavar="ID")
    cp.add_argument("--nu", type=float, default=0.5)
    cp.add_argument("--p", type=float, default=1.0)
    cp.add_argument("--alpha", type=float, default=1.0)
    _add_bounds_flags(cp)
    cp.set_defaults(fn=_cmd_compare)

    se = sub.add_parser("search", help="drive an inequality's gap toward zero")
    se.add_argument("--ineq", required=True, metavar="ID",
                    help="registry id, or scalar-lemma for the scalar refinement")
    se.add_argument("--budget", type=int, default=2000)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--n", type=int, default=2)
    se.add_argument("--nu", type=float, default=None)
    se.add_argument("--tol", type=float, default=DEFAULT_TOL)
    se.add_argument("--out", default=None)
    se.set_defaults(fn=_cmd_search)

    gn = sub.add_parser("gen", help="emit a sampled instance with its bounds header")
    gn.add_argument("--n", type=int, default=3)
    gn.add_argument("--seed", type=int, default=0)
    gn.add_argument("--force-endpoints", action="store_true")
    gn.add_argument("--out", default=None)
    _add_bounds_flags(gn)
    gn.set_defaults(fn=_cmd_gen)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser: parsing leaves it as it was, so main builds it
    once and reuses it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OpineqError, MemoryError) as exc:
        # a dimension too large to allocate is bad input, not a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
