"""Experiment runner: every acceptance experiment as a named subcommand.

Usage:
    oseen2d --list
    oseen2d <subcommand> [config-file] [--out DIR] [--grid-n N] [--box-l L]
            [--t0 T] [--t-end T] [--dt DT] [--alpha A] [--epsilon E]
            [--m M] [--seed S] [--basis B]

Config files are flat ``key = value`` text ('#' starts a comment); keys
match the long flags with '-' replaced by '_' (``out`` included).  Flags
override the file.
One summary line ``PASS|FAIL <criterion-id> <measured> <threshold>``
is printed per assertion.  Exit status: 0 all pass, 1 config error,
2 numerical failure, 3 criterion failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import typing
from dataclasses import fields as dc_fields

from .diagnostics import MIN_BASIS
from .errors import DomainError, Oseen2dError
from .experiments import EXPERIMENTS, ExperimentConfig

# every config key with the type its values parse to (the optional floats
# dt and epsilon parse as float); one flag per key, in field order
_KEY_TYPES = {name: int if hint is int else float
              for name, hint in typing.get_type_hints(ExperimentConfig).items()}


class ConfigError(Exception):
    pass


def parse_config_file(path) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def build_config(file_values: dict, flag_values: dict) -> ExperimentConfig:
    merged = dict(file_values)
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    updates = {}
    for key, value in merged.items():
        if key == "out":
            continue                    # the artifacts directory: main reads it
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown config key: {key}")
        try:
            updates[key] = _KEY_TYPES[key](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
        if not math.isfinite(updates[key]):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    cfg = ExperimentConfig(**updates)
    try:
        cfg.grid()
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    for bad, message in (
            (cfg.basis < MIN_BASIS, f"basis must be >= {MIN_BASIS}, got {cfg.basis}"),
            (cfg.seed < 0, f"seed must be >= 0, got {cfg.seed}"),
            (cfg.t0 <= 0, f"t0 must be > 0, got {cfg.t0}"),
            (cfg.t_end <= cfg.t0, f"t_end must be > t0 = {cfg.t0}, got {cfg.t_end}"),
            (cfg.dt is not None and cfg.dt <= 0, f"dt must be > 0, got {cfg.dt}"),
            (cfg.epsilon is not None and cfg.epsilon <= 0,
             f"epsilon must be > 0, got {cfg.epsilon}"),
            (cfg.m < 0, f"m must be >= 0, got {cfg.m}")):
        if bad:
            raise ConfigError(message)
    return cfg


def write_manifest(cfg: ExperimentConfig, subcommand: str, out) -> None:
    try:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "manifest.txt"), "w") as fh:
            fh.write(f"subcommand = {subcommand}\n")
            for f in dc_fields(ExperimentConfig):
                fh.write(f"{f.name} = {getattr(cfg, f.name)}\n")
    except OSError as exc:
        raise ConfigError(f"cannot write to output directory {out}: {exc}") from exc


def list_mapping() -> str:
    lines = ["subcommand -> acceptance criteria"]
    for name, (_, criteria) in EXPERIMENTS.items():
        lines.append(f"  {name}: {', '.join(criteria)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oseen2d", description="vorticity-solver experiment runner")
    parser.add_argument("--list", action="store_true",
                        help="print the subcommand/criteria mapping and exit")
    parser.add_argument("subcommand", nargs="?", choices=sorted(EXPERIMENTS))
    parser.add_argument("config", nargs="?", help="flat key = value file")
    parser.add_argument("--out", help="output directory for artifacts")
    for key, kind in _KEY_TYPES.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=kind)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    if args.list:
        print(list_mapping())
        return 0
    if args.subcommand is None:
        print("error: a subcommand (or --list) is required", file=sys.stderr)
        return 1

    try:
        file_values = parse_config_file(args.config) if args.config else {}
        flag_values = {key: getattr(args, key) for key in _KEY_TYPES}
        cfg = build_config(file_values, flag_values)
        out = args.out if args.out is not None else file_values.get("out")
        if out:
            write_manifest(cfg, args.subcommand, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runner, _ = EXPERIMENTS[args.subcommand]
    try:
        records = runner(cfg, out)
    except Oseen2dError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print(record.line())
    return 0 if all(r.passed for r in records) else 3


if __name__ == "__main__":
    sys.exit(main())
