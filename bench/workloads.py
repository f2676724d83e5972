"""The benchmark's workloads: their inputs, made from the seed, and their output checks.

Each workload is one `splitchaos` CLI invocation.  The three stress
different layers:

- image-hyperbolic: the single-selection game plus a density image.  The
  RNG and the per-step loop are nearly all of its time.
- csv-dchaos-wide: the split game over a 16-map system generated from
  the seed (two draws and two 16-bin selections per step) with CSV
  output, so selection and CSV formatting weigh far more than above.
- verify-oracle: the self-checks.  The only workload that runs the
  Hutchinson oracle and the nearest-neighbour query, and the only one
  that uses more than one core.

The program sees only files: the bundled specs, or the generated spec
written into the run's work directory.
"""

import bisect
import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1

# sha256 of each workload's output (PPM, CSV, or verify stdout) at
# DEFAULT_SEED, as produced by the original pure-Python implementation.
GOLDEN = {
    "image-hyperbolic": "ceee49ad920f4dfe9bafb850ba814a557896d32de4a2ff764c605012633769be",
    "csv-dchaos-wide": "8c423ea7c852ea79a2bcf9be055a750c7003f7fd0d490da2f02addc08f1225b2",
    "verify-oracle": "cc7745ca50d1fea0c065c6ec2b0453e588334008ee179277fd95afe1a9eb06f2",
}

WIDE_MAPS = 16
WIDE_KAPPA = (0.2, 0.9)
BURN_IN = 100  # the CLI's default
TALLY_LIMIT = 3.0  # sigma; matches checks.tally_convergence


@dataclass(frozen=True)
class Prepared:
    """Inputs of one workload at one seed, and what its output must be."""

    argv: list  # CLI arguments after `python3 -m splitchaos`
    spec: Path  # the system description the CLI reads
    output: Path | None  # file the CLI writes; None means stdout
    expect_exit: int
    properties: dict
    check: object  # callable(bytes) -> error string or None


@dataclass(frozen=True)
class Workload:
    name: str
    iterations: int
    prepare: object  # callable(root, work, seed, iterations) -> Prepared


# --- seeded inputs -----------------------------------------------------------


def wide_spec(seed, n=WIDE_MAPS):
    """A FULL-mode system of n maps whose attractor stays in the unit box.

    Each kappa component is uniform in WIDE_KAPPA and each beta component
    in [0, 1 - kappa], so every map sends the unit box into itself.  The
    weights fall off geometrically, with a little seeded jitter; the e1
    weights are heaviest first and the e2 weights heaviest last, so the
    linear selection scan is short on one component and long on the
    other for every seed.
    """
    rnd = random.Random(seed)
    maps = []
    for _ in range(n):
        k1 = rnd.uniform(*WIDE_KAPPA)
        k2 = rnd.uniform(*WIDE_KAPPA)
        maps.append(
            {
                "kappa": {"e1": k1, "e2": k2},
                "beta": {"e1": rnd.uniform(0.0, 1.0 - k1), "e2": rnd.uniform(0.0, 1.0 - k2)},
            }
        )
    w = [0.75**i * rnd.uniform(0.9, 1.1) for i in range(n)]
    total = math.fsum(w)
    w1 = [x / total for x in w]
    w2 = w1[::-1]
    return {
        "name": f"wide16-seed{seed}",
        "maps": maps,
        "probs": [{"e1": a, "e2": b} for a, b in zip(w1, w2)],
    }


def _properties(spec, draws_per_iteration, output):
    return {
        "maps": len(spec["maps"]),
        "max_kappa": max(max(m["kappa"]["e1"], m["kappa"]["e2"]) for m in spec["maps"]),
        "draws_per_iteration": draws_per_iteration,
        "output": output,
    }


# --- independent reference for the tally check -------------------------------

_MASK64 = (1 << 64) - 1


def reference_floats(seed, n):
    """n doubles of splitmix64-seeded xoshiro256++, written from the published algorithm."""
    s = []
    z = seed
    for _ in range(4):
        z = (z + 0x9E3779B97F4A7C15) & _MASK64
        x = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        s.append(x ^ (x >> 31))
    s0, s1, s2, s3 = s
    out = []
    for _ in range(n):
        x = (s0 + s3) & _MASK64
        out.append(((((((x << 23) | (x >> 41)) & _MASK64) + s0) & _MASK64) >> 11) * 2.0**-53)
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
    return out


def expected_tally_line(spec, iterations, seed):
    """The tally-convergence line `verify` must print for a FULL-mode spec."""
    probs = [(p["e1"] + p["e2"]) / 2.0 for p in spec["probs"]]
    cum = list(itertools.accumulate(probs))
    counts = [0] * len(cum)
    for u in reference_floats(seed, iterations):
        counts[min(bisect.bisect_right(cum, u), len(cum) - 1)] += 1
    worst = max(abs(c - iterations * p) / math.sqrt(iterations * p * (1.0 - p)) for c, p in zip(counts, probs))
    status = "PASS" if worst <= TALLY_LIMIT else "FAIL"
    return f"{status} tally-convergence: worst tally deviation {worst:.2f} sigma (limit 3)"


# --- output checks -----------------------------------------------------------


def _check_ppm(resolution):
    header = f"P6\n{resolution} {resolution}\n255\n".encode("ascii")

    def check(data):
        if not data.startswith(header) or len(data) != len(header) + 3 * resolution * resolution:
            return f"PPM is not a {resolution}x{resolution} P6 image"
        if not any(data[len(header) :]):
            return "PPM is all black"
        return None

    return check


def _check_csv(rows):
    def check(data):
        if not data.startswith(b"index,e1,e2\n"):
            return "CSV header missing"
        body = data[len(b"index,e1,e2\n") :]
        if body.count(b"\n") != rows or not body.endswith(b"\n"):
            return f"CSV does not have {rows} rows"
        if b"inf" in body or b"nan" in body:
            return "CSV has a non-finite value"
        last = body[body.rfind(b"\n", 0, len(body) - 1) + 1 :]
        if not last.startswith(f"{rows - 1},".encode()):
            return "CSV rows are not numbered 0..rows-1"
        return None

    return check


def _check_verify(tally_line):
    def check(data):
        lines = data.decode("utf-8", "replace").splitlines()
        if len(lines) != 3:
            return f"verify printed {len(lines)} lines, expected 3"
        if not lines[0].startswith("PASS attractor-membership: "):
            return f"unexpected membership line: {lines[0]!r}"
        if lines[1] != tally_line:
            return f"tally line {lines[1]!r}, expected {tally_line!r}"
        if lines[2] != "PASS decoupling: e1 orbit matches the one-dimensional replay exactly":
            return f"unexpected decoupling line: {lines[2]!r}"
        return None

    return check


def with_golden(name, seed, check):
    """Add the recorded digest to a check when the seed is DEFAULT_SEED."""
    if seed != DEFAULT_SEED:
        return check

    def golden_check(data):
        digest = hashlib.sha256(data).hexdigest()
        if digest != GOLDEN[name]:
            return f"sha256 {digest} differs from the recorded {GOLDEN[name]}"
        return check(data)

    return golden_check


# --- the workloads -----------------------------------------------------------


def _bundled(root, name):
    path = root / "src" / "splitchaos" / "data" / f"{name}.json"
    return path, json.loads(path.read_text())


def _image_hyperbolic(root, work, seed, iterations):
    resolution = 512
    spec_path, spec = _bundled(root, "sierpinski_hpd2")
    out = work / "density.ppm"
    argv = [
        "generate", "--spec", str(spec_path), "--variant", "hyperbolic",
        "--iterations", str(iterations), "--seed", str(seed),
        "--image", str(out), "--resolution", str(resolution),
    ]  # fmt: skip
    check = with_golden("image-hyperbolic", seed, _check_ppm(resolution))
    return Prepared(argv, spec_path, out, 0, _properties(spec, 1, "image"), check)


def _csv_dchaos_wide(root, work, seed, iterations):
    spec = wide_spec(seed)
    spec_path = work / "wide16.json"
    spec_path.write_text(json.dumps(spec))
    out = work / "points.csv"
    argv = [
        "generate", "--spec", str(spec_path), "--variant", "d-chaos",
        "--iterations", str(iterations), "--seed", str(seed), "--csv", str(out),
    ]  # fmt: skip
    check = with_golden("csv-dchaos-wide", seed, _check_csv(iterations - BURN_IN))
    return Prepared(argv, spec_path, out, 0, _properties(spec, 2, "csv"), check)


def _verify_oracle(root, work, seed, iterations):
    spec_path, spec = _bundled(root, "sierpinski")
    tally_line = expected_tally_line(spec, iterations, seed)
    argv = ["verify", "--spec", str(spec_path), "--iterations", str(iterations), "--seed", str(seed)]
    # Two hyperbolic games (1 draw a step), the split game and its replay (2 each).
    props = _properties(spec, 6, "stdout")
    # A 3-sigma tally test fails for about 1% of seeds on a correct program;
    # then FAIL and exit 1 are the correct output.
    props["tally_pass"] = tally_line.startswith("PASS")
    check = with_golden("verify-oracle", seed, _check_verify(tally_line))
    return Prepared(argv, spec_path, None, 0 if props["tally_pass"] else 1, props, check)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("image-hyperbolic", 1_000_000, _image_hyperbolic),
        Workload("csv-dchaos-wide", 500_000, _csv_dchaos_wide),
        Workload("verify-oracle", 200_000, _verify_oracle),
    )
}
