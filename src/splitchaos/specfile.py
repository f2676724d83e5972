"""Reading iterated-function-system descriptions from JSON.

The document shape is:

    {
      "name": "optional label",
      "maps":  [{"kappa": {"e1": c1, "e2": c2}, "beta": {"e1": b1, "e2": b2}}, ...],
      "probs": [{"e1": p1, "e2": p2}, ...]
    }

with maps and probs the same nonempty length, at most MAX_MAPS, and every
map's attractor bound |beta|/(1-kappa) finite in both components.
Validation failures carry the JSON path of the offending field.  Two
systems ship with the package: "sierpinski" (three half-scale maps,
uniform weights) and "sierpinski_hpd2" (same maps, lopsided
componentwise weights).
"""

import json
from importlib import resources

from .ifs import AffineContraction, HyperbolicIFS
from .numbers import Hyperbolic
from .probability import DistributionError, HyperbolicDistribution

BUNDLED = ("sierpinski", "sierpinski_hpd2")

# Most maps a system may have: entropy weighs all n^2 component pairs.
MAX_MAPS = 256


class ParseError(ValueError):
    """Input is not well-formed JSON."""


class ValidationError(ValueError):
    """Well-formed JSON that fails the document schema or value checks."""


def _number(node, path):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {type(node).__name__}")
    try:
        return float(node)
    except OverflowError:
        raise ValidationError(f"{path}: integer beyond the float range") from None


def _hyperbolic(node, path):
    if not isinstance(node, dict):
        raise ValidationError(f"{path}: expected an object with e1/e2")
    extra = set(node) - {"e1", "e2"}
    if extra:
        raise ValidationError(f"{path}: unexpected keys {sorted(extra)}")
    if "e1" not in node or "e2" not in node:
        raise ValidationError(f"{path}: both e1 and e2 are required")
    e1 = _number(node["e1"], f"{path}.e1")
    e2 = _number(node["e2"], f"{path}.e2")
    try:
        return Hyperbolic(e1, e2)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def parse_spec(text):
    """Parse and validate a JSON system description into a HyperbolicIFS."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("top level must be an object")
    for key in ("maps", "probs"):
        if key not in doc or not isinstance(doc[key], list) or not doc[key]:
            raise ValidationError(f"{key}: required nonempty array")
    if len(doc["maps"]) > MAX_MAPS:
        raise ValidationError(
            f"maps: {len(doc['maps'])} entries exceed the {MAX_MAPS} a system may have"
        )
    if len(doc["maps"]) != len(doc["probs"]):
        raise ValidationError(
            f"maps has {len(doc['maps'])} entries but probs has {len(doc['probs'])}"
        )
    maps = []
    for i, node in enumerate(doc["maps"]):
        path = f"maps[{i}]"
        if not isinstance(node, dict):
            raise ValidationError(f"{path}: expected an object")
        for key in ("kappa", "beta"):
            if key not in node:
                raise ValidationError(f"{path}.{key}: required")
        kappa = _hyperbolic(node["kappa"], f"{path}.kappa")
        beta = _hyperbolic(node["beta"], f"{path}.beta")
        try:
            maps.append(AffineContraction(kappa, beta))
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    probs = [_hyperbolic(node, f"probs[{i}]") for i, node in enumerate(doc["probs"])]
    try:
        dist = HyperbolicDistribution.validate(probs)
    except DistributionError as exc:
        raise ValidationError(f"probs: {exc}") from exc
    return HyperbolicIFS(tuple(maps), dist)


def load_spec(path):
    """Read and parse a system description file."""
    with open(path, "rb") as f:
        return parse_spec(f.read())


def bundled_spec(name):
    """Load one of the systems shipped with the package."""
    if name not in BUNDLED:
        raise ValueError(f"unknown bundled spec {name!r}; have {BUNDLED}")
    data = resources.files(__package__).joinpath(f"data/{name}.json").read_bytes()
    return parse_spec(data)
