"""Traced in-process run of the splitchaos CLI, and the per-draw calibration.

    python3 bench/traced.py trace SPANS_JSON RUN_ID -- CLI_ARGS...
    python3 bench/traced.py calibrate SPANS_JSON SPEC_JSON

`trace` imports `splitchaos.cli`, wraps the functions the CLI and the
checks call at each layer boundary (in their callers' namespaces, so the
program itself is unchanged), and runs `cli.main(CLI_ARGS)`: the same
public functions, in the same order, writing the same output.  Spans
are kept in memory and written once, with the final state of every RNG
the run made, to SPANS_JSON.

`calibrate` replays each recorded RNG for the number of draws its game
should have made, checks that it reaches the recorded final state (so
the draw count is exact), and times those draws and `select_index` over
the games' own cumulative sums.  It runs in its own process so that the
traced wall holds only the traced work.
"""

import json
import sys
import time

now = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []

    def span(self, name):
        return _Span(self, name)

    def wrap(self, module, attr, name, counts=None):
        """Replace module.attr with a version that records a span per call."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if counts:
                    span.update(counts(args, result))
            return result

        setattr(module, attr, traced)


class _Span(dict):
    def __init__(self, tracer, name):
        parent = tracer.stack[-1]["id"] if tracer.stack else None
        super().__init__(id=len(tracer.spans), name=name, parent=parent, run=tracer.run_id)
        self.tracer = tracer
        tracer.spans.append(self)

    def __enter__(self):
        self.tracer.stack.append(self)
        self["start"] = now()
        return self

    def __exit__(self, *exc):
        self["end"] = now()
        self.tracer.stack.pop()


def _game(args, _result):
    """Counts of a chaos game or the decoupling replay, both called as f(ifs, cfg, ...)."""
    cfg = args[1]
    per_step = 2 if cfg.variant.value == "d-chaos" else 1
    return {
        "variant": cfg.variant.value,
        "seed": cfg.seed,
        "iterations": cfg.iterations,
        "draws": per_step * cfg.iterations,
    }


def trace(spans_path, run_id, cli_argv):
    tracer = Tracer(run_id)
    with tracer.span("cli.import"):
        from splitchaos import chaos, checks, cli, rng

    rngs = []

    def recorded_rng(seed):
        r = rng.Xoshiro256PP(seed)
        rngs.append(r)
        return r

    chaos.Xoshiro256PP = recorded_rng
    checks.Xoshiro256PP = recorded_rng
    wrap = tracer.wrap
    wrap(cli, "load_spec", "specfile.load_spec")
    wrap(cli, "run", "chaos.run", _game)
    wrap(cli, "write_csv", "raster.write_csv", lambda a, r: {"bytes": a[1].tell()})
    wrap(cli, "rasterize", "raster.rasterize", lambda a, r: {"overflow": r.overflow})
    wrap(cli, "write_ppm", "raster.write_ppm")
    wrap(cli, "run_all", "checks.run_all")
    for name in ("attractor_membership", "tally_convergence", "decoupling"):
        wrap(checks, name, f"checks.{name}")
    wrap(checks, "run_hyperbolic", "chaos.run", _game)
    wrap(checks, "run_d_chaos", "chaos.run", _game)
    wrap(checks, "replay_component_game", "checks.replay_component_game", _game)
    wrap(checks, "iterate_hutchinson", "ifs.iterate_hutchinson", lambda a, r: {"points": len(r)})
    wrap(checks, "nearest_componentwise", "checks.nearest_componentwise")

    with tracer.span("cli.main"):
        code = cli.main(cli_argv)
    sys.stdout.flush()
    doc = {
        "run": run_id,
        "exit": code,
        "spans": tracer.spans,
        "rng_states": [list(r.state()) for r in rngs],
    }
    with open(spans_path, "w") as f:
        json.dump(doc, f)
    return code


def calibrate(spans_path, spec_path):
    """Replay every recorded RNG; time draws and selection on the workload's sums."""
    from splitchaos.chaos import cumulative, select_index
    from splitchaos.probability import accumulated_distribution, marginals
    from splitchaos.rng import Xoshiro256PP
    from splitchaos.specfile import load_spec

    with open(spans_path) as f:
        doc = json.load(f)
    games = sorted((s for s in doc["spans"] if "draws" in s), key=lambda s: s["start"])
    if len(games) != len(doc["rng_states"]):
        return {"draws_exact": False, "reason": f"{len(doc['rng_states'])} RNGs for {len(games)} games"}

    draws = 0
    draw_s = 0.0
    exact = True
    for game, final in zip(games, doc["rng_states"]):
        r = Xoshiro256PP(game["seed"])
        next_float = r.next_float
        t0 = now()
        for _ in range(game["draws"]):
            next_float()
        draw_s += now() - t0
        draws += game["draws"]
        exact = exact and list(r.state()) == final

    ifs = load_spec(spec_path)
    sample = 100_000
    select_s = 0.0
    selects = 0
    for variant, seed in sorted({(g["variant"], g["seed"]) for g in games}):
        r = Xoshiro256PP(seed)
        us = [r.next_float() for _ in range(sample)]
        if variant == "d-chaos":
            m1, m2 = marginals(ifs.dist)
            jobs = [(cumulative(m1.probs), us[0::2]), (cumulative(m2.probs), us[1::2])]
        else:
            jobs = [(cumulative(accumulated_distribution(ifs.dist).probs), us)]
        for cum, draws_for_cum in jobs:
            t0 = now()
            for u in draws_for_cum:
                select_index(cum, u)
            select_s += now() - t0
            selects += len(draws_for_cum)
    return {
        "draws_exact": exact,
        "draws": draws,
        "ns_per_draw": 1e9 * draw_s / draws,
        "select_ns": 1e9 * select_s / selects,
    }


def main(argv):
    if argv[:1] == ["trace"] and len(argv) >= 4 and argv[3] == "--":
        return trace(argv[1], argv[2], argv[4:])
    if argv[:1] == ["calibrate"] and len(argv) == 3:
        print(json.dumps(calibrate(argv[1], argv[2])))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
