"""Command-line interface: generate point clouds, report entropies, verify.

Exit codes: 0 on success (and all checks passing for `verify`), 1 on any
validation failure, 2 on I/O failure.  Every failure prints a one-line
diagnostic to stderr.
"""

import argparse
import json
import math
import sys

from .chaos import RunConfig, Variant, run
from .checks import run_all
from .entropy import verify_inequalities
from .numbers import Hyperbolic
from .raster import check_image, rasterize, write_csv, write_ppm
from .specfile import load_spec


class _Parser(argparse.ArgumentParser):
    # Usage problems are validation failures: exit 1, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _parse_extent(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("extent must be e1min,e2min,e1max,e2max")
    e1min, e2min, e1max, e2max = (float(p) for p in parts)
    return Hyperbolic(e1min, e2min), Hyperbolic(e1max, e2max)


def build_parser():
    parser = _Parser(prog="splitchaos")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run a chaos game and write its output")
    gen.add_argument("--spec", required=True, help="system description JSON file")
    gen.add_argument(
        "--variant",
        required=True,
        choices=[v.value for v in Variant],
    )
    gen.add_argument("--iterations", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--burn-in", type=int, default=100)
    gen.add_argument("--csv", help="write recorded points as CSV here")
    gen.add_argument("--image", help="write a density image (binary PPM) here")
    gen.add_argument("--resolution", type=int, default=512)
    gen.add_argument(
        "--extent",
        default="0,0,1,1",
        help="image extent as e1min,e2min,e1max,e2max",
    )
    gen.set_defaults(func=_cmd_generate)

    ent = sub.add_parser("entropy", help="entropy report for a system's weights")
    ent.add_argument("--spec", required=True)
    ent.add_argument("--json", action="store_true", dest="as_json")
    ent.add_argument(
        "--bits",
        action="store_true",
        help="report entropies in bits instead of nats",
    )
    ent.set_defaults(func=_cmd_entropy)

    ver = sub.add_parser("verify", help="run the self-checks against a system")
    ver.add_argument("--spec", required=True)
    ver.add_argument("--iterations", type=int, required=True)
    ver.add_argument("--seed", type=int, required=True)
    ver.set_defaults(func=_cmd_verify)

    return parser


def _cmd_generate(args):
    ifs = load_spec(args.spec)
    cfg = RunConfig(Variant(args.variant), args.seed, args.iterations, burn_in=args.burn_in)
    if not (args.csv or args.image):
        raise ValueError("nothing to write: give --csv, --image or both")
    extent = _parse_extent(args.extent)
    check_image(args.resolution, extent)
    cloud = run(ifs, cfg)
    if args.csv:
        with open(args.csv, "wb") as f:
            write_csv(cloud, f)
    if args.image:
        grid = rasterize(cloud, args.resolution, extent)
        with open(args.image, "wb") as f:
            write_ppm(grid, f)
    return 0


def _text(value):
    if isinstance(value, Hyperbolic):
        return value.to_text()
    if isinstance(value, bool):
        return "holds" if value else "VIOLATED"
    return repr(value)


def _cmd_entropy(args):
    ifs = load_spec(args.spec)
    report = verify_inequalities(ifs.dist)
    scale = math.log(2.0) if args.bits else 1.0
    rows = [(name, getattr(report, name) / scale) for name in ("h_strong", "h_weak", "h_q", "h_k")]
    rows += [(name, getattr(report, name)) for name in ("ineq_q", "ineq_k")]
    if args.as_json:
        doc = {}
        for name, value in rows:
            if isinstance(value, Hyperbolic):
                doc[f"{name}_e1"], doc[f"{name}_e2"] = value.e1, value.e2
            else:
                doc[name] = value
        print(json.dumps(doc, indent=2))
        return 0
    print(f"entropy report ({'bits' if args.bits else 'nats'})")
    for name, value in rows:
        print(f"  {name:<9} {_text(value)}")
    return 0


def _cmd_verify(args):
    ifs = load_spec(args.spec)
    results = run_all(ifs, args.iterations, args.seed)
    all_passed = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        all_passed = all_passed and res.passed
    return 0 if all_passed else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
