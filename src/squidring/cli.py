"""Command-line entry point: run an experiment, export plot-ready data.

Exit codes: 0 success, 2 configuration error, 3 numerical failure or a
sample grid too large to allocate (a diagnostic file is written next to the
outputs in that case).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .circuit import ConvergenceError, RampHamiltonian, build_hs, fock_ring_ops
from .config import ConfigError, RunConfig, apply_overrides, parse_config, read_config
from .dynamics import IntegrationError, QuantumState, evolve_tdse
from .experiments import default_model, resolve_t0, run_dissipative, run_ramp, run_sweep
from .linalg import PositivityError, is_hermitian
from .observables import labeled_basis

NUMERIC_FMT = ".15g"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, NUMERIC_FMT)
    return str(value)


def _plateau_lines(plateau: dict, indent: str) -> list[str]:
    """Plateau statistics to a fixed 1e-10, 250 times their 4e-13 rounding floor."""
    return [f"{indent}plateau {k}: {'None' if v is None else format(v, '.10f')}"
            for k, v in sorted(plateau.items())]


def _csv_column(values: np.ndarray) -> tuple[list, str]:
    """A column's cells and their % conversion, which together print as _fmt does."""
    if values.dtype == bool:
        return np.where(values, "true", "false").tolist(), "%s"
    return values.tolist(), f"%{NUMERIC_FMT}" if values.dtype.kind == "f" else "%s"


def _write_rows(path: Path, records: dict, fmt: str) -> None:
    """One data file: a column per key of records (one array each), a row per sample.
    A CSV row is one % template with csv's "\r\n" line end."""
    columns = list(records)
    if fmt == "csv":
        cells, conversions = zip(*(_csv_column(records[c]) for c in columns))
        template = ",".join(conversions) + "\r\n"
        with path.open("w", newline="") as fh:
            fh.write(",".join(columns) + "\r\n")
            fh.writelines(template % row for row in zip(*cells))
    else:
        rows = zip(*(records[c].tolist() for c in columns))  # plain Python floats and bools
        with path.open("w") as fh:
            for row in rows:
                fh.write(json.dumps(dict(zip(columns, row))) + "\n")


def _write_data(cfg: RunConfig, name: str, records: dict) -> None:
    """records as <output.directory>/<name>.<output.format>."""
    fmt = cfg.output.format
    _write_rows(Path(cfg.output.directory) / f"{name}.{fmt}", records, fmt)


def _model_from_config(cfg: RunConfig):
    return default_model(
        cfg.circuit, ref_flux=cfg.ramp.A,
        de=cfg.truncation.de, ds=cfg.truncation.ds, pre_dim=cfg.truncation.pre_dim,
    )


def _ramp_setup(cfg: RunConfig):
    """(model, cfg with the ramp's auto_t0 resolved, i.e. recording the t0 used)."""
    model = _model_from_config(cfg)
    return model, replace(cfg, ramp=resolve_t0(cfg.ramp, model))


def _run_ramp(cfg: RunConfig) -> tuple[RunConfig, list[str]]:
    """unitary flux-ramp entanglement protocol"""
    model, cfg = _ramp_setup(cfg)
    result = run_ramp(cfg.ramp, model, cfg.integrator, sample_dt=cfg.output.sample_dt)
    _write_data(cfg, "ramp", result.records)
    lines = ["ramp run", f"  samples: {len(result.records['t'])}"]
    lines += _plateau_lines(result.plateau, "  ")
    return cfg, lines


def _run_sweep(cfg: RunConfig) -> tuple[RunConfig, list[str]]:
    """time-averaged energies vs static bias flux"""
    result = run_sweep(cfg.sweep, cfg.circuit,
                       de=cfg.truncation.de, ds=cfg.truncation.ds,
                       pre_dim=cfg.truncation.pre_dim)
    _write_data(cfg, "sweep", result.records)
    lines = ["sweep run", f"  points: {len(result.records['phi_x'])}",
             f"  field-energy baseline: {_fmt(result.baseline)}"]
    if result.regions:
        for r in result.regions:
            lines.append(
                f"  exchange region: center {r.center:.5f} Phi0, "
                f"width {r.width:.5f} Phi0, depth {r.depth:.4f} hbar*omega_s"
            )
        centers = [r.center for r in result.regions]
        if len(centers) >= 2:
            lines.append(f"  twin-center sum: {centers[0] + centers[-1]:.5f} Phi0")
    else:
        lines.append("  no exchange regions detected")
    return cfg, lines


def _run_dissipative(cfg: RunConfig) -> tuple[RunConfig, list[str]]:
    """flux-ramp protocol with thermal damping"""
    model, cfg = _ramp_setup(cfg)
    results = run_dissipative(cfg.ramp, model, cfg.bath, cfg.integrator, cfg.output.sample_dt)
    lines = ["dissipative run"]
    for gamma, result in results.items():
        tag = format(gamma, "g").replace("-", "m").replace("+", "")
        _write_data(cfg, f"dissipative_gamma_{tag}", result.records)
        lines.append(f"  gamma = {gamma:g} omega_s:")
        lines += _plateau_lines(result.plateau, "    ")
    return cfg, lines


def _run_validate(cfg: RunConfig) -> tuple[RunConfig, list[str]]:
    """run the model invariant checks (raises on failure)"""
    model = _model_from_config(cfg)
    drive = cfg.ramp  # the ramp block is the FluxDrive it runs
    ham = RampHamiltonian(model, drive)
    checks: list[tuple[str, bool]] = []

    for t in (0.0, drive.t0 + drive.tr / 2, 3 * drive.t0):
        checks.append((f"H(t={t:g}) Hermitian", is_hermitian(ham(t))))

    # twin symmetry holds for the full ring spectrum, so check it in the
    # pre-truncation basis (the truncated basis is tied to one flux point)
    full = fock_ring_ops(model.pre_dim, model.params.lambda_s)
    w1 = np.linalg.eigvalsh(build_hs(full, model.params, drive.A))[: model.ds]
    w2 = np.linalg.eigvalsh(build_hs(full, model.params, 1.0 - drive.A))[: model.ds]
    checks.append(("ring spectral twin symmetry", bool(np.max(np.abs(w1 - w2)) < 1e-9)))

    dev = np.max(np.abs(full.cos_phi @ full.cos_phi
                        + full.sin_phi @ full.sin_phi - np.eye(model.pre_dim)))
    checks.append(("cos^2+sin^2 = 1 before truncation", bool(dev < 1e-10)))
    for name, op in (("cos", model.ring.cos_phi), ("sin", model.ring.sin_phi)):
        w = np.linalg.eigvalsh(op)
        checks.append((f"projected {name} spectrum within [-1, 1]",
                       bool(w.min() > -1 - 1e-10 and w.max() < 1 + 1e-10)))

    basis = labeled_basis(model, drive.A)
    gram = basis.matrix.conj().T @ basis.matrix
    checks.append(("labeled basis orthonormal", bool(
        np.max(np.abs(gram - np.eye(model.dim))) < 1e-10)))

    psi0 = QuantumState.pure(basis.state(1, 0), (model.de, model.ds))
    traj = evolve_tdse(psi0, ham, 50.0,
                       config=cfg.integrator, sample_dt=5.0)
    checks.append(("TDSE norm preserved over 50 omega_s^-1 (< 1e-9)",
                   bool(traj.max_norm_drift < 1e-9)))

    lines = ["validation run"]
    failed = []
    for name, passed in checks:
        lines.append(f"  {'PASS' if passed else 'FAIL'}: {name}")
        if not passed:
            failed.append(name)
    if failed:
        raise IntegrationError(f"model validation failed: {'; '.join(failed)}")
    return cfg, lines


_RUNNERS = {
    "sweep": _run_sweep,
    "ramp": _run_ramp,
    "dissipative": _run_dissipative,
    "validate": _run_validate,
}


def build_parser() -> argparse.ArgumentParser:
    """One parser: a command, a key of _RUNNERS (its runner's docstring is its help), options."""
    parser = argparse.ArgumentParser(
        prog="squidring", formatter_class=argparse.RawTextHelpFormatter,
        description="SQUID ring / em field mode entanglement protocol simulator",
    )
    parser.add_argument("command", choices=_RUNNERS, help="\n".join(
        f"{name}: {run.__doc__}" for name, run in _RUNNERS.items()))
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--out", help="output directory: output.directory")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="dot-path config override, applied last")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def write_config(used: RunConfig) -> None:
        (out / "resolved_config.json").write_text(json.dumps(used.to_dict(), indent=2) + "\n")

    try:
        raw = read_config(args.config)
        out_flag = [] if args.out is None else [f"output.directory={json.dumps(args.out)}"]
        apply_overrides(raw, out_flag + args.overrides)  # --out 123 is the string "123"
        cfg = parse_config(raw)
        out = Path(cfg.output.directory)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {out}: {exc}") from exc
        used, lines = _RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, PositivityError, ConvergenceError, MemoryError,
            np.linalg.LinAlgError) as exc:
        write_config(cfg)  # as configured: a failed run may not have resolved auto_t0
        diag = out / "diagnostic.txt"
        diag.write_text(f"{type(exc).__name__}: {exc}\n")
        print(f"numerical failure: {exc} (see {diag})", file=sys.stderr)
        return 3

    write_config(used)
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def entry() -> None:
    raise SystemExit(main())
