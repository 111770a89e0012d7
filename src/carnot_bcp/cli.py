"""Command-line entry point wiring the modules into reproducible experiments.

Subcommands: classify, dist, besicovitch (search | verify | cover),
certify-lemmas, countable-space, report.  All outputs are UTF-8 JSON with
rationals serialized as "p/q" strings, and a NaN or infinite float as "nan",
"inf" or "-inf"; every numeric result is tagged with the
backend that produced it.  Seeds are explicit (no wall-clock defaults), so
identical configurations produce byte-identical reports up to timing fields.
The distance alone decides exact or margin mode: a family is exact when the
kind is exact-capable (``QuasiDistance.exact_capable``) and margin
otherwise, and ``dist`` labels its value "exact-comparable" when, in
addition, both points are rational.  No flag selects the mode, and a family
file's "mode" and "epsilon" must be the ones its distance gives.

Exit codes: 0 success / valid certificate, 2 certificate rejected, 64 bad
configuration or arguments, 70 internal solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

from .scalars import all_exact, fmt_scalar, parse_scalar

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_CONFIG = 64
EXIT_SOLVER = 70


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# group and distance construction from flags
# ---------------------------------------------------------------------------

def _build_group(args):
    from . import algebra
    if args.group is None:
        raise ConfigError("--group is required")
    if os.path.exists(args.group):
        return algebra.load_group(args.group)
    weights = [parse_scalar(w) for w in args.weights.split(",")] if args.weights else None
    alpha = parse_scalar(args.alpha) if args.alpha is not None else None
    return algebra.builtin_group(args.group, weights=weights, n=args.n, alpha=alpha,
                                 rank=args.rank)


def _build_distance(args):
    """The distance of the flags; only the HS kinds read ``--group``, as the
    others build their own group."""
    from . import metrics
    kind = args.kind
    if kind in ("hs", "power"):
        d = metrics.HSDistance(_build_group(args), parse_scalar(args.R))
        return d if kind == "hs" else metrics.power_distance(d, parse_scalar(args.t))
    if kind == "cc_h1":
        return metrics.CCHeisenbergDistance(a=float(args.scale))
    if kind == "snowflake_product_max":
        return metrics.product_max_distance(
            metrics.euclidean_line(), metrics.snowflake_line(parse_scalar(args.t)))
    if kind == "snowflake_product_lp":
        return metrics.lp_combination_distance(
            metrics.euclidean_line(), metrics.snowflake_line(parse_scalar(args.t)),
            parse_scalar(args.r_exp))
    raise ConfigError(f"unknown distance kind '{kind}'")


def _parse_point(text):
    """Coordinates as Fractions, or as floats when one is not rational text;
    a NaN or infinite coordinate is a configuration error."""
    parts = [t for t in str(text).split(",") if t != ""]
    try:
        return tuple(parse_scalar(t) for t in parts)
    except ValueError:
        point = tuple(float(t) for t in parts)
    if not all(math.isfinite(x) for x in point):
        raise ConfigError(f"coordinates must be finite, not {text!r}")
    return point


def _json_text(x):
    """x with every NaN and infinite float in it written as the text
    ``fmt_scalar`` gives, "nan", "inf" or "-inf": JSON (RFC 8259) has no
    such numbers."""
    if isinstance(x, float) and not math.isfinite(x):
        return fmt_scalar(x)
    if isinstance(x, dict):
        return {k: _json_text(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_text(v) for v in x]
    return x


def _emit(payload, args):
    text = json.dumps(_json_text(payload), indent=2, sort_keys=True, allow_nan=False)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args):
    from .structure import classify_group
    group = _build_group(args)
    payload = classify_group(group)
    payload["group"] = group.name
    _emit(payload, args)
    return EXIT_OK


def cmd_dist(args):
    d = _build_distance(args)
    p = _parse_point(args.p)
    q = _parse_point(args.q)
    value = d.value(p, q)
    exact = d.exact_capable and all_exact(p) and all_exact(q)
    backend = "exact-comparable" if exact else "float"
    _emit({"value": value, "backend": backend,
           "kind": d.kind, "group": d.group.name}, args)
    return EXIT_OK


def _array(value, what):
    """A JSON array from a points or family file; anything else, a string
    included, is a malformed file rather than a sequence to iterate."""
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a JSON array, not {json.dumps(value)}")
    return value


def _object(value, what):
    """The top level of a JSON file that holds named fields."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must hold a JSON object, not {json.dumps(value)}")
    return value


def _scalar(value, what):
    """A coordinate or radius from a JSON file: a number or numeric text,
    not an array, an object, a boolean or null."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{what} must be a number or a string, not {json.dumps(value)}")
    return value


def _load_family(path, dist):
    """The family of a family file on ``dist``, every entry read exactly.
    Its "mode" and "epsilon", when present, must be the family's own."""
    from .besicovitch import MARGIN_EPSILON, BesicovitchFamily
    with open(path, "r", encoding="utf-8") as fh:
        data = _object(json.load(fh), "a family file")

    def scalars(values, what):
        out = []
        for x in _array(values, what):
            x = _scalar(x, f"an entry of {what}")
            # text goes through parse_scalar, which reads integers of any
            # size; a JSON number keeps Fraction(x), since a float converts
            # exactly and 0.1 is not "0.1"
            try:
                out.append(parse_scalar(x) if isinstance(x, str) else Fraction(x))
            except (ValueError, OverflowError):     # NaN and infinities included
                raise ConfigError(f"an entry of {what} must be finite and rational, "
                                  f"not {json.dumps(x)}") from None
        return tuple(out)

    centers = tuple(scalars(c, "a center") for c in _array(data["centers"], "centers"))
    fam = BesicovitchFamily(centers, scalars(data["radii"], "radii"),
                            scalars(data["witness"], "the witness"), dist)
    if data.get("mode", fam.mode) != fam.mode:
        raise ConfigError(f"mode {json.dumps(data['mode'])} is not the distance's "
                          f"mode {json.dumps(fam.mode)}")
    epsilon = data.get("epsilon", MARGIN_EPSILON)
    if float(_scalar(epsilon, "epsilon")) != MARGIN_EPSILON:
        raise ConfigError(f"epsilon must be {MARGIN_EPSILON}, not {json.dumps(epsilon)}")
    return fam


def cmd_besicovitch(args):
    from . import besicovitch as bz
    d = _build_distance(args)
    if args.action == "verify":
        fam = _load_family(args.family, d)
        cert = bz.verify_family(fam)
        _emit(cert.to_json(), args)
        if not cert.valid:
            for v in cert.violations:
                print(f"violation: {v}", file=sys.stderr)
            return EXIT_REJECTED
        return EXIT_OK
    if args.action == "search":
        res = bz.search_family(d, args.budget, strategy=args.strategy, seed=args.seed)
        _emit(res.to_json(), args)
        return EXIT_OK
    if args.action == "cover":
        with open(args.points, "r", encoding="utf-8") as fh:
            data = _object(json.load(fh), "a points file")
        pts = [tuple(float(_scalar(x, "an entry of a point")) for x in _array(p, "a point"))
               for p in _array(data["points"], "points")]
        radii = [float(_scalar(r, "an entry of radii")) for r in _array(data["radii"], "radii")]
        rep = bz.greedy_cover(pts, radii, d)
        _emit(rep.to_json(), args)
        return EXIT_OK
    raise ConfigError(f"unknown besicovitch action '{args.action}'")


def cmd_certify_lemmas(args):
    from .certificates import RegionParams, lemma_sweep
    params = RegionParams(r=int(args.rank), R=parse_scalar(args.R))
    rep = lemma_sweep(args.lemma, params, sample_count=int(args.samples),
                      seed=int(args.seed))
    _emit(rep.to_json(), args)
    return EXIT_OK if rep.ok else EXIT_REJECTED


def cmd_countable_space(args):
    from .besicovitch import (countable_space, countable_space_ball_audit,
                              countable_space_triangle_audit,
                              countable_space_two_ball_audit)
    n = int(args.n)
    payload = {
        "n": n,
        "triangle_exact": countable_space_triangle_audit(min(n, 200)),
        "ball_structure_exact": countable_space_ball_audit(n),
        "two_ball_audit": countable_space_two_ball_audit(min(n, 200), grid=args.grid),
    }
    if n <= 64:
        space = countable_space(n)
        payload["validation_issues"] = space.validate()
    _emit(payload, args)
    ok = payload["triangle_exact"] and payload["ball_structure_exact"] and \
        payload["two_ball_audit"]["ok"]
    return EXIT_OK if ok else EXIT_REJECTED


def cmd_report(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        config = _object(json.load(fh), "a config file")
    sub = config.pop("subcommand", None)
    if sub is None:
        raise ConfigError("config file needs a 'subcommand' field")
    argv = [sub]
    for key, val in config.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            if val:
                argv.append(flag)
        elif key in ("action",):
            argv.insert(1, str(val))
        else:
            # one word, so that a value such as "-1,2,3" is not read as a flag
            argv.append(f"{flag}={val}")
    parser = build_parser()
    # argparse exits on a bad flag; a bad config key is a configuration error
    try:
        sub_args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return EXIT_OK
        raise ConfigError(f"config keys do not parse as '{sub}' flags") from None
    started = time.time()
    code = sub_args.func(sub_args)
    sys.stderr.write(json.dumps({"elapsed_s": time.time() - started}) + "\n")
    return code


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_group_flags(p):
    p.add_argument("--group", help="built-in tag or JSON file path")
    p.add_argument("--weights", help="comma-separated weights for abelian groups")
    p.add_argument("--n", type=int, default=1, help="Heisenberg index")
    p.add_argument("--alpha", help="non-standard grading exponent")
    p.add_argument("--rank", type=int, help="free step-2 rank")


def _add_dist_flags(p):
    p.add_argument("--kind", default="hs",
                   choices=["hs", "cc_h1", "power", "snowflake_product_max",
                            "snowflake_product_lp"])
    p.add_argument("--R", default="1", help="Euclidean unit-ball radius parameter")
    p.add_argument("--t", default="2", help="power / snowflake exponent")
    p.add_argument("--r", "--r-exp", dest="r_exp", default="1", help="lp exponent")
    p.add_argument("--scale", default="1", help="sub-Riemannian scale")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="carnot-bcp",
        description="graded groups, homogeneous quasi-distances, and "
                    "Besicovitch covering certificates")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("classify", help="decide the commuting-layers criterion")
    _add_group_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dist", help="evaluate a quasi-distance")
    _add_group_flags(p)
    _add_dist_flags(p)
    p.add_argument("--p", required=True, help="comma-separated coordinates")
    p.add_argument("--q", required=True, help="comma-separated coordinates")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("besicovitch", help="search, verify, or cover")
    p.add_argument("action", choices=["search", "verify", "cover"])
    _add_group_flags(p)
    _add_dist_flags(p)
    p.add_argument("--family", help="family JSON file (verify)")
    p.add_argument("--points", help="points+radii JSON file (cover)")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--strategy", default="annealed", choices=["random", "annealed"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_besicovitch)

    p = sub.add_parser("certify-lemmas", help="hypothesis-constrained lemma sweeps")
    p.add_argument("--lemma", required=True,
                   choices=["aq", "small_angles", "away", "near2a", "inbetween"])
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--R", default="1")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify_lemmas)

    p = sub.add_parser("countable-space", help="audits of the countable example")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=cmd_countable_space)

    p = sub.add_parser("report", help="run an experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def _join_points(argv):
    """``--p``/``--q`` joined with the next word into one, so that argparse
    reads a point such as ``-1,2,3`` as the value, not as a flag."""
    out, rest = [], list(argv)
    while rest:
        word = rest.pop(0)
        if word in ("--p", "--q") and rest:
            word = f"{word}={rest.pop(0)}"
        out.append(word)
    return out


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_join_points(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
