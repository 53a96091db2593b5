"""Command-line front end: graph generation, single experiments, seed sweeps.

Every output file embeds the full configuration (seeds included) so any run
can be reproduced from its own output.  Exact values appear as ``num/den``
strings; float columns exist only as projections for plotting.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .exactmath import FractionVector
from .graph import diameter, parse_edge_list, serialize_edge_list
from .kmeans import parse_centroids, parse_observations
from .oracle import check_equivalence, lloyd_reference
from .sim import (T_SANITY_BAND, ExperimentConfig, ProtocolError, counters,
                  generate_centroids, generate_graph, generate_observations,
                  run_consensus, run_kmeans, sweep)

SCHEMA_PREFIX = "quantkmeans"


def _write_csv(path: Path, config: dict, header: list[str], rows) -> None:
    lines = ["# config: " + json.dumps(config, sort_keys=True),
             ",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _centroid_cell(vector: FractionVector) -> str:
    return str(vector).replace(" ", ";")


def _read_input(path: str, parse):
    """``parse`` applied to the text of the file at ``path``; an error in
    the text names the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_interval(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(
            f"bad interval {text!r}: expected LO:HI with integer bounds"
        ) from None


def _d_bound_value(text: str):
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or an integer, not {text!r}") from None


# setting -> (converter, help).  Each name but ``seed`` is an
# ``ExperimentConfig`` field; the flag is ``--`` plus the name with dashes,
# and the names are also the only keys a ``--config`` file may set.
# ``region`` stays text until the dimension is known.
_SETTINGS = {
    "n": (int, "number of nodes"),
    "k": (int, "number of clusters"),
    "dim": (int, "observation dimension"),
    "extra_edge_probability": (float, "extra-edge probability"),
    "region": (str, "LO:HI for every dimension, or one LO:HI per "
                    "dimension, comma separated"),
    "seed": (int, "base seed; graph/observation/centroid seeds default to "
                  "seed, seed+1, seed+2"),
    "graph_seed": (int, None),
    "observation_seed": (int, None),
    "centroid_seed": (int, None),
    "d_bound": (_d_bound_value, "diameter upper bound, or 'auto'"),
    "max_rounds": (int, None),
}

# the fields ``generate_graph`` reads: ``gen-graph``'s settings besides
# ``seed``, and its ``.meta.json`` config
_GRAPH_FIELDS = ("n", "extra_edge_probability", "graph_seed")


def _apply_config_file(args) -> None:
    """Fill the settings the command line left unset from the ``--config``
    file, each converted as its flag is; a repeated key's last value wins."""
    if getattr(args, "config", None) is None:
        return
    unset = {dest for dest in _SETTINGS if getattr(args, dest, None) is None}
    text = Path(args.config).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in _SETTINGS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            converted = _SETTINGS[dest][0](value)
        except (ValueError, argparse.ArgumentTypeError):
            raise ValueError(
                f"config key {dest!r}: bad value {value!r}") from None
        if dest in unset:
            setattr(args, dest, converted)


def _experiment_config(args, implied: dict[str, int]) -> ExperimentConfig:
    """The experiment the settings describe; what none sets keeps its
    ``ExperimentConfig`` default.  ``implied`` holds the n, k and dim that
    input files fix; those are recorded, and a setting that differs is an
    input error."""
    fields = {dest: getattr(args, dest) for dest in _SETTINGS
              if getattr(args, dest, None) is not None}
    base_seed = fields.pop("seed", None)
    region = fields.pop("region", None)
    for key, value in implied.items():
        given = fields.setdefault(key, value)
        if given != value:
            raise ValueError(f"{key}={given} conflicts with {key}={value} "
                             f"implied by the input files")
    if base_seed is not None:
        for offset, field in enumerate(
                ("graph_seed", "observation_seed", "centroid_seed")):
            fields.setdefault(field, base_seed + offset)
    dim = fields.get("dim", ExperimentConfig.dim)
    if region is not None:
        intervals = tuple(_parse_interval(part) for part in region.split(","))
        fields["region"] = intervals * dim if len(intervals) == 1 else intervals
    elif "dim" in fields:
        # the default region's first interval on every dimension
        fields["region"] = ExperimentConfig.region[:1] * dim
    return ExperimentConfig(**fields)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --------------------------------------------------------------------------
# subcommands


def cmd_gen_graph(args) -> int:
    if args.n is None:
        raise ValueError("--n is required")
    # the graph ``kmeans`` would generate from the same settings
    config = _experiment_config(args, {})
    g = generate_graph(config)
    diam = diameter(g)
    out = Path(args.out)
    out.write_text(serialize_edge_list(g), encoding="utf-8")
    # the edge-list format has no comment syntax, so the generation config
    # rides in a sidecar
    _write_json(out.with_suffix(out.suffix + ".meta.json"), {
        "schema": f"{SCHEMA_PREFIX}-graph-v1",
        "config": {"command": "gen-graph",
                   **{name: getattr(config, name) for name in _GRAPH_FIELDS}},
        "n": g.n, "m": g.m, "diameter": diam,
    })
    print(f"n={g.n} m={g.m} D={diam}")
    return 0


def cmd_consensus(args) -> int:
    g = _read_input(args.graph, parse_edge_list)
    values = _read_input(args.values, parse_observations)
    trace = run_consensus(g, values, log_messages=args.log_messages)
    out = _out_dir(args)
    config = {
        "command": "consensus", "graph": args.graph, "values": args.values,
        "n": g.n, "m": g.m,
    }
    _write_json(out / "consensus_summary.json", {
        "schema": f"{SCHEMA_PREFIX}-consensus-v1",
        "config": config,
        **counters(trace),
        "average": str(trace.average),
        "estimates": [str(e) for e in trace.estimates],
    })
    _write_csv(out / "consensus_trace.csv", config,
               ["step", "messages_sent"],
               list(enumerate(trace.per_step_messages)))
    if trace.message_log is not None:
        _write_csv(out / "consensus_messages.csv", config,
                   ["step", "sender", "receiver", "z", "y"],
                   [(s, a, b, z, " ".join(map(str, y)))
                    for s, a, b, z, y in trace.message_log])
    print(f"S_t={trace.S_t} bound={trace.step_bound} bound_ok={trace.bound_ok}")
    if not trace.bound_ok:
        print(f"step bound exceeded: S_t={trace.S_t} is above the paper's "
              f"bound {trace.step_bound}", file=sys.stderr)
        return 1
    return 0


def _read_kmeans_inputs(args):
    """Parse the input files given (None where an input is generated) and
    the n, k and dim they imply."""
    g = observations = centroids = None
    implied: dict[str, int] = {}
    if args.graph is not None:
        g = _read_input(args.graph, parse_edge_list)
        implied["n"] = g.n
    if args.observations is not None:
        observations = _read_input(args.observations, parse_observations)
        implied.setdefault("n", len(observations))
        implied["dim"] = len(observations[0])
    if args.centroids is not None:
        centroids = _read_input(args.centroids, parse_centroids)
        implied["k"] = len(centroids)
        implied.setdefault("dim", centroids[0].dim)
    return g, observations, centroids, implied


def cmd_kmeans(args) -> int:
    g, observations, centroids, implied = _read_kmeans_inputs(args)
    config = _experiment_config(args, implied)
    config.validate()
    if g is None:
        g = generate_graph(config)
    if observations is None:
        observations = generate_observations(config)
    if centroids is None:
        centroids = generate_centroids(config)
    trace = run_kmeans(g, observations, centroids,
                       d_bound=config.d_bound, max_rounds=config.max_rounds,
                       log_messages=args.log_messages)
    config_dict = asdict(config)
    config_dict.update({
        "command": "kmeans",
        "graph_file": args.graph, "observations_file": args.observations,
        "centroids_file": args.centroids,
    })
    report = check_equivalence(trace, lloyd_reference(
        observations, centroids, max_rounds=config.max_rounds))
    equivalence = "pass" if report.passed else "fail"
    print(f"equivalence: {equivalence}")
    out = _out_dir(args)
    _write_json(out / "kmeans_summary.json", {
        "schema": f"{SCHEMA_PREFIX}-kmeans-v1",
        "config": config_dict,
        **counters(trace),
        "final_centroids": [_centroid_cell(c)
                            for c in trace.rounds[-1].centroids],
        "objective_final": str(trace.rounds[-1].objective),
        "equivalence": equivalence,
        "equivalence_detail": report.detail,
    })
    k = trace.k
    per_round = [counters(r) for r in trace.rounds]
    _write_csv(out / "rounds.csv", config_dict,
               [*per_round[0], "F_num", "F_den"]
               + [f"c_{cl}" for cl in range(k)],
               [(*c.values(), r.objective.numerator, r.objective.denominator,
                 *map(_centroid_cell, r.centroids))
                for c, r in zip(per_round, trace.rounds)])
    _write_csv(out / "fcurve.csv", config_dict,
               ["T", "F_num", "F_den", "F_float"],
               [(r.T, r.objective.numerator, r.objective.denominator,
                 float(r.objective)) for r in trace.rounds])
    dim = trace.dim
    _write_csv(out / "trajectories.csv", config_dict,
               ["T", "cluster"] + [f"coord_{i}" for i in range(dim)]
               + [f"float_{i}" for i in range(dim)],
               [(r.T, cl,
                 *[str(f) for f in r.centroids[cl].components()],
                 *[float(f) for f in r.centroids[cl].components()])
                for r in trace.rounds for cl in range(k)])
    _write_csv(out / "assignments.csv", config_dict,
               ["node", "cluster"] + [f"x_{i}" for i in range(dim)],
               [(j, trace.final_assignments[j], *observations[j])
                for j in range(trace.n)])
    if trace.message_log is not None:
        _write_csv(out / "messages.csv", config_dict,
                   ["step", "sender", "receiver", "label", "z", "y"],
                   [(s, a, b, cl, z, " ".join(map(str, y)))
                    for s, a, b, cl, z, y in trace.message_log])
    print(f"T={trace.T} C_t={trace.C_t} terminated={trace.terminated}")
    if not trace.terminated:
        print(f"no termination within max_rounds={config.max_rounds}",
              file=sys.stderr)
    if not trace.bound_ok:
        print(f"step bound exceeded: C_t={trace.C_t} is above the paper's "
              f"bound {trace.step_bound}", file=sys.stderr)
    return 0 if report.passed and trace.bound_ok and trace.terminated else 1


def cmd_sweep(args) -> int:
    config = _experiment_config(args, {})
    result = sweep(config, args.seeds, workers=args.workers)
    out = _out_dir(args)
    config_dict = asdict(config)
    config_dict.update({"command": "sweep", "num_seeds": args.seeds})
    _write_json(out / "sweep_aggregate.json", {
        "schema": f"{SCHEMA_PREFIX}-sweep-v1",
        "config": config_dict,
        "t_mean": result.t_mean, "t_min": result.t_min, "t_max": result.t_max,
        "histogram": result.histogram,
        "band": T_SANITY_BAND,
        "band_violations": result.band_violations,
        "all_bounds_ok": result.all_bounds_ok,
    })
    # one column per scalar row key, then the final objective as a float
    columns = [key for key, value in result.per_seed[0].items()
               if not isinstance(value, list)]
    _write_csv(out / "sweep_per_seed.csv", config_dict,
               [*columns, "objective_final_float"],
               [(*(r[c] for c in columns), r["objective_curve_float"][-1])
                for r in result.per_seed])
    _write_csv(out / "sweep_thist.csv", config_dict, ["T", "count"],
               result.histogram)
    _write_csv(out / "sweep_fmean.csv", config_dict, ["T", "F_mean_float"],
               list(enumerate(result.f_mean_curve)))
    print(f"seeds={args.seeds} t_mean={result.t_mean:.2f} "
          f"t_min={result.t_min} t_max={result.t_max}")
    if result.band_violations:
        print(f"warning: T outside sanity band {T_SANITY_BAND} for seeds "
              f"{result.band_violations}", file=sys.stderr)
    unfinished = [r["seed"] for r in result.per_seed if not r["terminated"]]
    if unfinished:
        print(f"no termination within max_rounds={config.max_rounds} for "
              f"seeds {unfinished}", file=sys.stderr)
    if not result.all_bounds_ok:
        print("step bound exceeded: C_t is above the paper's bound for seeds "
              f"{[r['seed'] for r in result.per_seed if not r['bound_ok']]}",
              file=sys.stderr)
    return 0 if result.all_bounds_ok and not unfinished else 1


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantkmeans",
        description="Distributed k-means with integer-only messaging over "
                    "digraphs: generators, single runs, and seed sweeps.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_settings(p, dests, config_help="key=value file of these "
                     "settings; flags override"):
        for dest in dests:
            convert, help_text = _SETTINGS[dest]
            p.add_argument("--" + dest.replace("_", "-"), dest=dest,
                           type=convert, help=help_text)
        p.add_argument("--config", help=config_help)

    # no abbreviated flags: a setting has no spelling but its name
    g = sub.add_parser("gen-graph", allow_abbrev=False,
                       help="generate a random digraph edge list")
    add_settings(g, (*_GRAPH_FIELDS, "seed"),
                 "key=value file of the settings kmeans takes; gen-graph "
                 "uses n, extra_edge_probability, graph_seed and seed, and "
                 "parses and ignores the other keys; flags override")
    g.add_argument("--out", "-o", required=True)
    g.set_defaults(func=cmd_gen_graph)

    c = sub.add_parser("consensus", allow_abbrev=False,
                       help="run plain exact averaging")
    c.add_argument("--graph", required=True, help="edge-list file")
    c.add_argument("--values", required=True, help="initial integer vectors")
    c.add_argument("--log-messages", action="store_true")
    c.add_argument("--out-dir", default=".", help="output directory")
    c.set_defaults(func=cmd_consensus)

    km = sub.add_parser("kmeans", allow_abbrev=False,
                        help="run one clustering experiment")
    km.add_argument("--graph", help="edge-list file (else generated)")
    km.add_argument("--observations", help="observations file (else generated)")
    km.add_argument("--centroids", help="initial centroids file (else generated)")
    add_settings(km, _SETTINGS)
    km.add_argument("--log-messages", action="store_true")
    km.add_argument("--out-dir", default=".", help="output directory")
    km.set_defaults(func=cmd_kmeans)

    sw = sub.add_parser("sweep", allow_abbrev=False,
                        help="run many seeded experiments")
    add_settings(sw, _SETTINGS)
    sw.add_argument("--seeds", type=int, default=100,
                    help="number of derived-seed runs")
    sw.add_argument("--workers", type=int, default=None)
    sw.add_argument("--out-dir", default=".", help="output directory")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        return args.func(args)
    except ProtocolError as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
