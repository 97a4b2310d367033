"""Command-line front end: point evaluations, grid sweeps, preset listing,
and matrix dumps, with CSV/JSON outputs suitable for external plotting."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__, dynamics, gaussian, model, sweep
from .errors import ParameterError, SimulationError, StabilityError

#: rad/s keys that also accept a "<key>_over_omega_m" ratio form
_RATIO_KEYS = (
    "omega_w", "gamma_m", "kappa_c", "kappa_w", "kappa_a", "g",
    "delta_a1", "delta_a2", "delta_c", "delta_w",
)

_ALL_FIELDS = tuple(f.name for f in fields(model.SystemParameters))


def parse_config(path) -> model.SystemParameters:
    """Read and validate a strict-JSON parameter file.

    Every SystemParameters field must be present, either directly in rad/s (SI
    otherwise) or, for rate-like keys, as "<key>_over_omega_m". Exactly one
    form per key; unknown keys are a hard error so typos in physics parameters
    cannot pass silently.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"cannot read parameter file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(
            f"parameter file {path} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}: {exc.msg})") from exc
    if not isinstance(raw, dict):
        raise ParameterError(f"parameter file {path} must hold a JSON object")

    allowed = set(_ALL_FIELDS) | {f"{k}_over_omega_m" for k in _RATIO_KEYS}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ParameterError(
            f"unknown parameter key(s): {', '.join(unknown)}")
    values: dict[str, float] = {}
    for key, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParameterError(f"{key} must be a number, got {value!r}")
        try:
            values[key] = float(value)
        except OverflowError:  # a JSON integer beyond the float range
            raise ParameterError(f"{key} is out of floating-point range") from None

    if "omega_m" not in values:
        raise ParameterError("missing required key omega_m")
    omega_m = values["omega_m"]

    kw: dict[str, float] = {}
    for name in _ALL_FIELDS:
        ratio_name = f"{name}_over_omega_m"
        has_plain = name in values
        has_ratio = name in _RATIO_KEYS and ratio_name in values
        if has_plain and has_ratio:
            raise ParameterError(
                f"{name} given in both absolute and _over_omega_m form; "
                "use exactly one")
        if has_plain:
            kw[name] = values[name]
        elif has_ratio:
            kw[name] = values[ratio_name] * omega_m
        else:
            raise ParameterError(f"missing required key {name}")
    return model.SystemParameters(**kw)


def params_to_config(params: model.SystemParameters) -> dict[str, float]:
    """Parameter echo in the exact shape parse_config accepts."""
    return {name: getattr(params, name) for name in _ALL_FIELDS}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse's usage failures through our exit-code policy (1, not 2)
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="oemsim",
        description="Steady-state entanglement of an atom-assisted "
                    "opto-electro-mechanical system.")
    parser.add_argument("--version", action="version", version=f"oemsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--preset", help="named scenario (see 'oemsim presets')")
        src.add_argument("--params", help="JSON parameter file")

    p_point = sub.add_parser("point", parents=[], help="evaluate one parameter point")
    add_source(p_point)
    x_help = ("swept-axis value (preset axis units, or units of omega_m with "
              "--params); default: the base detuning")
    p_point.add_argument("--x", type=float, default=None, help=x_help)
    p_point.add_argument("--pairs", default=None,
                         help="comma list of mode pairs (default: all five)")
    p_point.add_argument("--baseline", action="store_true",
                         help="also report the values at the atom-free point: "
                              "g = r_a = 0, kappa_a = omega_m, and no atomic "
                              "detuning, population or coherence")
    p_point.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p_sweep = sub.add_parser("sweep", help="run a 1-D grid sweep and write CSV")
    add_source(p_sweep)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--pairs", default=None,
                         help="comma list of mode pairs (default: preset pairs, "
                              "or the three bosonic pairs with --params)")
    p_sweep.add_argument("--baseline", action="store_true",
                         help="force the atom-free comparison on")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="threads in all that evaluate the grid's blocks, "
                              "the calling thread one of them (>= 1; capped by "
                              "the usable CPUs and by the blocks of the first "
                              "1024 points); the output is byte-identical at "
                              "every value")
    p_sweep.add_argument("--grid", nargs=3, type=float, default=None,
                         metavar=("START", "STOP", "COUNT"),
                         help="override the grid (axis units)")
    p_sweep.add_argument("--axis", default=None,
                         choices=[sweep.AXIS_OMEGA_M, sweep.AXIS_KAPPA_C],
                         help="axis unit of the grid and the CSV's x_value; for "
                              "a preset, its grid is read in the new unit")

    sub.add_parser("presets", help="list available scenario presets")

    p_dump = sub.add_parser("dump-matrices",
                            help="write drift, diffusion, covariance CSVs for one point")
    add_source(p_dump)
    p_dump.add_argument("--x", type=float, default=None, help=x_help)
    p_dump.add_argument("--out", required=True, help="output directory")
    return parser


def _parse_pairs(arg: str | None, default: tuple[str, ...]) -> tuple[str, ...]:
    if arg is None:
        return default
    tags = [t for t in arg.split(",") if t.strip()]
    if not tags:
        raise _UsageError("--pairs must name at least one mode pair")
    try:
        return sweep._pair_tags(tags)
    except ParameterError as exc:
        raise _UsageError(str(exc)) from exc


def _source_spec(args) -> sweep.SweepSpec:
    """The --preset spec, or a --params file as a custom delta_c sweep."""
    if args.preset:
        return sweep.preset(args.preset)
    params = parse_config(args.params)
    return sweep.SweepSpec(
        name="custom", base=params, varied="delta_c", start=-2.0, stop=2.0,
        count=401, axis=sweep.AXIS_OMEGA_M, axis_scale=params.omega_m,
        pairs=gaussian.BOSONIC_PAIRS)


def _point_params(args) -> tuple[model.SystemParameters, float]:
    """Resolve (params, x) for point/dump modes."""
    spec = _source_spec(args)
    if args.x is None:
        return spec.base, spec.base.delta_c / spec.axis_scale
    return spec.base.replace(delta_c=args.x * spec.axis_scale), args.x


def _cmd_point(args) -> int:
    params, x = _point_params(args)
    pairs = _parse_pairs(args.pairs, tuple(gaussian.BIPARTITE_PAIRS))
    rec = sweep.evaluate_point(params, pairs, baseline=args.baseline)
    payload = {
        "x": x,
        "delta_c": params.delta_c,
        "stable": rec.stable,
        "max_real_part": rec.max_real_part,
        "e_n": {tag: rec.e_n.get(tag) for tag in pairs},
        "error": rec.error,
    }
    if args.baseline:
        payload["baseline_e_n"] = {
            tag: rec.baseline_e_n.get(tag) for tag in sweep._baseline_pairs(pairs)}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        sweep._write_text(args.out, [text, "\n"])
    else:
        print(text)
    return 2 if rec.error is not None else 0


def _grid_count(count: float) -> int:
    """--grid COUNT as an int; argparse reads it as a float with START and STOP."""
    if not (math.isfinite(count) and count == int(count)):
        raise _UsageError(f"--grid COUNT must be a whole number, got {count!r}")
    return int(count)


def _sweep_spec(args) -> sweep.SweepSpec:
    spec = _source_spec(args)
    changes = {"pairs": _parse_pairs(args.pairs, spec.pairs),
               "baseline": spec.baseline or args.baseline}
    if args.grid is not None:
        start, stop, count = args.grid
        changes.update(start=start, stop=stop, count=_grid_count(count))
    if args.axis not in (None, spec.axis):
        scale = "kappa_c" if args.axis == sweep.AXIS_KAPPA_C else "omega_m"
        changes.update(axis=args.axis, axis_scale=getattr(spec.base, scale))
    return replace(spec, **changes)


def _cmd_sweep(args) -> int:
    spec = _sweep_spec(args)
    out = Path(args.out)
    meta_path = Path(f"{args.out}.meta.json")
    created = [path for path in (out, meta_path) if not path.exists()]
    try:
        for path in (out, meta_path):
            path.open("a").close()  # an unwritable path fails here, before the sweep
        result = sweep.run_sweep(spec, jobs=args.jobs)
        sweep.write_csv(result, out)
        meta = {
            "tool": {"name": "oemsim", "version": __version__},
            "name": spec.name,
            "varied": spec.varied,
            "axis": {"label": spec.axis, "scale_rad_per_s": spec.axis_scale,
                     "start": spec.start, "stop": spec.stop, "count": spec.count},
            "pairs": list(spec.pairs),
            "baseline": spec.baseline,
            "notes": list(spec.notes),
            "params": params_to_config(spec.base),
            "counts": {"points": len(result.x),
                       "stable": result.stable_count(),
                       "errors": result.error_count()},
        }
        sweep._write_text(meta_path,
                          [json.dumps(meta, indent=2, sort_keys=True), "\n"])
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        raise
    if result.error_count() == len(result.x):
        print("error: every grid point failed", file=sys.stderr)
        return 2
    if result.stable_count() == 0:
        print("error: no stable grid point in the sweep", file=sys.stderr)
        return 2
    return 0


def _cmd_presets() -> int:
    for name in sweep.PRESET_NAMES:
        spec = sweep.preset(name)
        print(f"{name:6s} axis={spec.axis} range=[{spec.start:g}, {spec.stop:g}] "
              f"points={spec.count} pairs={','.join(spec.pairs)} "
              f"baseline={'on' if spec.baseline else 'off'}")
        print(f"       {sweep.PRESET_SUMMARIES[name]}")
        for note in spec.notes:
            print(f"       note: {note}")
    return 0


def _write_matrix(path: Path, mat: np.ndarray) -> None:
    sweep._write_text(path, (",".join(format(x, ".17g") for x in row) + "\n"
                             for row in np.asarray(mat)))


#: the files of dump-matrices, in the order that a point's matrices are computed
_DUMP_FILES = ("drift.csv", "diffusion.csv", "covariance.csv")


def _cmd_dump(args) -> int:
    params, _ = _point_params(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    matrices, failure = [], None
    try:
        ss = model.solve_steady_state(params)
        matrices += [dynamics.build_drift(params, ss), dynamics.build_diffusion(params)]
        matrices.append(dynamics.solve_lyapunov(*matrices))
    except SimulationError as exc:
        failure = exc
    for name, matrix in zip(_DUMP_FILES, matrices):
        _write_matrix(out_dir / name, matrix)
    # the directory holds this point's matrices alone: a file that the point
    # has no matrix for must not keep an earlier dump's
    for name in _DUMP_FILES[len(matrices):]:
        (out_dir / name).unlink(missing_ok=True)
    if isinstance(failure, StabilityError):
        print(f"error: point is unstable: {failure}", file=sys.stderr)
        return 2
    if failure is not None:
        raise failure
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "point":
            return _cmd_point(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "presets":
            return _cmd_presets()
        return _cmd_dump(args)  # dump-matrices, the last of the four
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a grid too large to allocate; numpy says how much it asked for
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        raise  # a closed stdout; entry() ends the process quietly
    except OSError as exc:
        # parse_config turns a failed read into a ParameterError, so what
        # reaches here is a failed write: of an --out path, or of stdout
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help / --version
        code = exc.code
        return int(code) if isinstance(code, int) else 0


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`oemsim presets | head -1`); point
        # stdout at devnull so the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
