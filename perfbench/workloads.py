"""Benchmark workloads: seeded configs for `squidring` commands and output checks.

Each workload is one CLI command on a config drawn from a seed. Seed 0 is
the default config (`{}`), so its outputs are compared with the reference
files in `reference/`, captured with `capture_reference.py`. Other seeds move
physical values only (ramp target flux, ramp time, bath rates and
temperature, coupling); they never change t_end, sample_dt, grid points or
truncation, so every seed does the same amount of work. Every seed gets the
physics checks of its workload.
"""
from __future__ import annotations

import csv
import math
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Outputs agree with the reference when |out - ref| <= ATOL + RTOL * |ref|.
# Reordered floating-point sums move the records by ~1e-11; a change in the
# physics (step size, Hamiltonian, labeling) moves them by far more than 1e-8.
RTOL = 1e-8
ATOL = 1e-8
# The reference keeps every STRIDE-th row of each ramp-type CSV.
STRIDE = 10


class Workload:
    def __init__(self, name: str, command: str, pattern: str, files: int, stride: int):
        self.name = name
        self.command = command
        self.pattern = pattern      # glob of the CSV files the command writes
        self.files = files          # how many of them
        self.stride = stride        # reference keeps every stride-th row

    def config(self, seed: int) -> dict:
        """Raw JSON config for this seed; seed 0 is the default config."""
        if seed == 0:
            return {}
        return _DRAWS[self.name](random.Random(seed))

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        return [self.command, "--config", str(config_path), "--out", str(out_dir)]

    def check(self, out_dir: Path, seed: int) -> list[str]:
        """Problems with a run's outputs; empty when they are correct."""
        found = sorted(out_dir.glob(self.pattern))
        if len(found) != self.files or not (out_dir / "summary.txt").is_file():
            return [f"expected {self.files} x {self.pattern} and summary.txt, "
                    f"found {[p.name for p in found]}"]
        errors = _PHYSICS[self.name](parse_summary((out_dir / "summary.txt").read_text()))
        if seed == 0:
            ref = REFERENCE_DIR / self.name
            refs = sorted(ref.glob(self.pattern))
            if len(refs) != self.files:
                errors.append(f"reference {ref} holds {len(refs)} x {self.pattern}")
            for path in refs:
                errors += compare_csv(path, out_dir / path.name, self.stride)
            errors += compare_summary(ref / "summary.txt", out_dir / "summary.txt")
        return errors


def _ramp_draw(rng: random.Random) -> dict:
    return {"ramp": {"B": round(0.38 + rng.uniform(-0.01, 0.01), 6),
                     "tr": round(16.6 * rng.uniform(0.97, 1.03), 4)}}


def _dissipative_draw(rng: random.Random) -> dict:
    cfg = _ramp_draw(rng)
    gamma = 1e-5 * rng.uniform(0.8, 1.25)
    cfg["bath"] = {"gammas": [float(f"{gamma:.6g}"), float(f"{10 * gamma:.6g}")],
                   "Tb": round(4.2 * rng.uniform(0.9, 1.1), 4)}
    return cfg


def _sweep_draw(rng: random.Random) -> dict:
    return {"circuit": {"mu_es": round(0.01 * rng.uniform(0.95, 1.05), 8)}}


_DRAWS = {"ramp": _ramp_draw, "dissipative": _dissipative_draw, "sweep": _sweep_draw}


# --- physics checks on the summary, for every seed --------------------------

def parse_summary(text: str) -> dict:
    """Summary lines as {section: {key: value}}; section "" is the top level.

    Dissipative runs open one section per "gamma = <rate> omega_s:" line.
    Sweep exchange regions are collected under the key "centers".
    """
    sections: dict = {"": {}}
    current = sections[""]
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("gamma = "):
            current = sections.setdefault(line.split()[2], {})
        elif line.startswith("exchange region: center "):
            current.setdefault("centers", []).append(float(line.split()[3]))
        elif ":" in line:
            key, value = line.split(":", 1)
            current[key.removeprefix("plateau ").strip()] = value.strip()
    return sections


def _near(summary: dict, key: str, target: float, tol: float) -> list[str]:
    value = float(summary[key])
    if abs(value - target) > tol:
        return [f"{key} = {value:.6g}, expected {target:.6g} +- {tol:g}"]
    return []


def _ramp_physics(sections: dict) -> list[str]:
    top = sections[""]
    return (_near(top, "ent_mag_mean", math.log(2), 0.05)
            + _near(top, "P_10_mean", 0.5, 0.1)
            + _near(top, "P_01_mean", 0.5, 0.1))


def _dissipative_physics(sections: dict) -> list[str]:
    rates = sorted((float(k), v) for k, v in sections.items() if k)
    if len(rates) != 2:
        return [f"expected 2 damping rates in the summary, found {len(rates)}"]
    (low, weak), (high, strong) = rates
    if not float(strong["ent_mag_mean"]) < float(weak["ent_mag_mean"]):
        return [f"plateau entanglement at gamma={high:g} is not below gamma={low:g}"]
    return []


def _sweep_physics(sections: dict) -> list[str]:
    centers = sections[""].get("centers", [])
    if len(centers) != 2:
        return [f"expected 2 exchange regions, found {len(centers)}"]
    total = centers[0] + centers[1]
    if abs(total - 1.0) > 5e-4:
        return [f"twin exchange centres sum to {total:.6f}, expected 1"]
    return []


_PHYSICS = {"ramp": _ramp_physics, "dissipative": _dissipative_physics,
            "sweep": _sweep_physics}


# --- comparison with the reference outputs (seed 0) -------------------------

def _last_digit(word: str) -> float:
    """Value of one unit in the last printed digit of a number."""
    mantissa, _, exponent = word.lower().partition("e")
    return 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


def _close(out: str, ref: str, printed: bool = False) -> bool:
    """Numbers within tolerance (plus one printed digit if `printed`), text equal."""
    try:
        a, b = float(out), float(ref)
    except ValueError:
        return out == ref
    slack = 1.01 * max(_last_digit(out), _last_digit(ref)) if printed else 0.0
    return abs(a - b) <= ATOL + RTOL * abs(b) + slack


def compare_csv(ref_path: Path, out_path: Path, stride: int = 1) -> list[str]:
    """Every stride-th row of the output against the reference rows."""
    if not out_path.is_file():
        return [f"missing output {out_path.name}"]
    with ref_path.open(newline="") as fh:
        ref = list(csv.reader(fh))
    with out_path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    out = rows[:1] + rows[1::stride]
    if len(out) != len(ref) or out[0] != ref[0]:
        return [f"{out_path.name}: {len(rows) - 1} rows / header {out[0]} do not match "
                f"the reference ({len(ref) - 1} rows at stride {stride}, header {ref[0]})"]
    errors = []
    for i, (o, r) in enumerate(zip(out[1:], ref[1:])):
        bad = [c for c, a, b in zip(ref[0], o, r) if not _close(a, b)]
        if bad or len(o) != len(r):
            errors.append(f"{out_path.name} row {i * stride}: {bad or 'width'} differ "
                          f"from the reference")
            if len(errors) >= 5:
                break
    return errors


def compare_summary(ref_path: Path, out_path: Path) -> list[str]:
    """Summary lines against the reference, numbers to their printed precision."""
    ref = ref_path.read_text().splitlines()
    out = out_path.read_text().splitlines()
    if len(out) != len(ref):
        return [f"summary has {len(out)} lines, reference {len(ref)}"]
    errors = []
    for o, r in zip(out, ref):
        o_words = o.replace(",", " ").split()
        r_words = r.replace(",", " ").split()
        if len(o_words) != len(r_words) or not all(
                _close(a, b, printed=True) for a, b in zip(o_words, r_words)):
            errors.append(f"summary line {o.strip()!r} differs from {r.strip()!r}")
    return errors


WORKLOADS = {
    "ramp": Workload("ramp", "ramp", "ramp.csv", 1, STRIDE),
    "dissipative": Workload("dissipative", "dissipative", "dissipative_gamma_*.csv", 2,
                            STRIDE),
    "sweep": Workload("sweep", "sweep", "sweep.csv", 1, 1),
}
