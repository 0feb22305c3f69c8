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
is printed per assertion.  With an output directory, manifest.txt is
written there before the run and the experiment's artifacts after it;
this module is the only one that writes them.  Exit status: 0 all pass,
1 config error (a file that cannot be written included), 2 numerical
failure, 3 criterion failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import typing
from dataclasses import fields as dc_fields

from .errors import DomainError, Oseen2dError
from .experiments import EXPERIMENTS, ExperimentConfig
from .field import ScalarField, write_field

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
    try:
        return ExperimentConfig(**updates)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def manifest(cfg: ExperimentConfig, subcommand: str) -> str:
    lines = [f"subcommand = {subcommand}"]
    lines += [f"{f.name} = {getattr(cfg, f.name)}" for f in dc_fields(ExperimentConfig)]
    return "\n".join(lines) + "\n"


def write_artifacts(out, artifacts: dict) -> None:
    """Write each artifact at its relative path under the directory out:
    text as is, a ScalarField as a field file.  ConfigError on failure."""
    for rel, content in artifacts.items():
        path = os.path.join(out, rel)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            if isinstance(content, ScalarField):
                write_field(content, path)
            else:
                with open(path, "w") as fh:
                    fh.write(content)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc


def list_mapping() -> str:
    lines = ["subcommand -> acceptance criteria"]
    for name, (_, criteria) in EXPERIMENTS.items():
        lines.append(f"  {name}: {', '.join(criteria)}")
    return "\n".join(lines)


def _print(text: str) -> None:
    try:
        print(text, flush=True)
    except BrokenPipeError:     # the reader stopped early: drop the rest, keep the run
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


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
        _print(list_mapping())
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
            # before the run, so an unusable directory fails at once
            write_artifacts(out, {"manifest.txt": manifest(cfg, args.subcommand)})
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runner, _ = EXPERIMENTS[args.subcommand]
    try:
        records, artifacts = runner(cfg)
    except Oseen2dError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    for record in records:
        _print(record.line())
    if out:
        try:
            write_artifacts(out, artifacts)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0 if all(r.passed for r in records) else 3


if __name__ == "__main__":
    sys.exit(main())
