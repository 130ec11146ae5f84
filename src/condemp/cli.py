"""Command-line front end.

Subcommands: basis, project, density, limit, w2, converge, sandwich, mc.
A versioned JSON config file drives every run; --seed/--out/--modes/--tol
override the corresponding config entries.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .harness import (ConfigError, ExperimentConfig, interval_basis, limit_report,
                      resolve_nu, run_convergence, run_mc_crosscheck, run_sandwich,
                      run_w2)
from .semigroup import conditional_density, export_density_csv
from .spectral import mu_coefficients, project


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="experiment config (JSON)")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--modes", type=int, default=None, help="override mode count")
    p.add_argument("--tol", type=float, default=None, help="override truncation tolerance")


def _load(args) -> ExperimentConfig:
    overrides = {key: getattr(args, key) for key in ("seed", "out", "modes", "tol")
                 if getattr(args, key) is not None}
    cfg = dataclasses.replace(ExperimentConfig.load(args.config), **overrides)
    if cfg.out is None:
        cfg.out = "results"
    os.makedirs(cfg.out, exist_ok=True)
    return cfg


def cmd_basis(args) -> int:
    cfg = _load(args)
    basis = cfg.build_basis()
    path = os.path.join(cfg.out, "basis.json")
    basis.save(path)
    print(f"basis: M={basis.M} lambda0={basis.eigenvalues[0]:.9g} "
          f"ortho_residual={basis.orthonormality_residual():.3e} -> {path}")
    return 0


def cmd_project(args) -> int:
    cfg = _load(args)
    basis = cfg.build_basis()
    nu = resolve_nu(cfg.nu_spec, basis)
    nu_c = project(nu, basis)
    doc = {"schema": "condemp.coefficients/1", "source": nu.label(),
           "nu": nu_c.tolist(), "mu": mu_coefficients(basis).tolist(),
           "eigenvalues": basis.eigenvalues.tolist()}
    path = os.path.join(cfg.out, "coefficients.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    print(f"project: wrote {nu_c.size} coefficients for {nu.label()} -> {path}")
    return 0


def cmd_density(args) -> int:
    cfg = _load(args)
    basis = interval_basis(cfg, "density")
    nu = resolve_nu(cfg.nu_spec, basis)
    for t in ([args.t] if args.t is not None else cfg.times):
        cd = conditional_density(nu, basis, float(t))
        path = os.path.join(cfg.out, f"density_t{float(t):g}.csv")
        export_density_csv(cd, path)
        print(f"density: t={t:g} mass={cd.mass:.9f} min={cd.min_value:.3e} "
              f"tail<={cd.truncation.tail_estimate:.2e} -> {path}")
    return 0


def cmd_limit(args) -> int:
    cfg = _load(args)
    report = limit_report(cfg, cfg.build_basis())
    path = os.path.join(cfg.out, "limit.json")
    report.save(path)
    print(f"limit: I={report.I_value:.12e} tail<={report.tail_bound:.2e} "
          f"positive={report.positive} -> {path}")
    return 0


def cmd_w2(args) -> int:
    cfg = _load(args)
    t = float(args.t if args.t is not None else cfg.times[0])
    row = run_w2(cfg, t)
    doc = {"t": t, "w2": row["w2"], "w2_squared": row["w2sq"],
           "method": cfg.w2_method, "error_estimate": row["w2_error"],
           "tail_bound": row["tail_bound"], "seed": cfg.seed}
    path = os.path.join(cfg.out, f"w2_t{t:g}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"w2: t={t:g} {cfg.w2_method} w2={row['w2']:.9e} "
          f"err<={row['w2_error']:.2e} -> {path}")
    return 0


def cmd_converge(args) -> int:
    cfg = _load(args)
    report = run_convergence(cfg)
    last = report.rows[-1]
    print(f"converge: I={report.limit.I_value:.9e} "
          f"gap(t={last['t']:g})={last['rel_gap']:+.4f} "
          f"exponent={report.gap_exponent:.3f} -> {cfg.out}/convergence.*")
    return 0


def cmd_sandwich(args) -> int:
    cfg = _load(args)
    t = float(args.t if args.t is not None else cfg.times[0])
    row = run_sandwich(cfg, t)
    print(f"sandwich: t={t:g} lower={row['lower']:.6e} w2sq={row['w2sq']:.6e} "
          f"upper={row['upper']:.6e} ordered={row['ordered']}")
    return 0


def cmd_mc(args) -> int:
    cfg = _load(args)
    out = run_mc_crosscheck(cfg)
    keys = ("survival_slope", "slope_rel_err", "w1_occupation", "w2_occupation")
    brief = " ".join(f"{k}={out[k]:.4g}" for k in keys if k in out)
    print(f"mc: {brief} -> {cfg.out}/mc_crosscheck.json")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="condemp",
        description="conditional-occupation laboratory for killed diffusions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra_t in (
            ("basis", cmd_basis, False), ("project", cmd_project, False),
            ("density", cmd_density, True), ("limit", cmd_limit, False),
            ("w2", cmd_w2, True), ("converge", cmd_converge, False),
            ("sandwich", cmd_sandwich, True), ("mc", cmd_mc, False)):
        p = sub.add_parser(name)
        _add_common(p)
        if extra_t:
            p.add_argument("--t", type=float, default=None, help="time (default: config)")
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
