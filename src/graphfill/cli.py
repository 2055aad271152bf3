"""Command-line entry points: run, train-filter, baseline, render-prompts, report."""
import argparse
import dataclasses
import functools
import json
import sys

from .files import atomic_write
from .metrics import RunReport, format_aggregate, render_markdown_table
from .prompts import render_system_prompt
from .runner import PRIMARY_METHOD, RunConfig, execute_run, mask_and_train, prepare_run, run_repeat
from .signals import TimeVaryingSignal
from .spectral import FilterDivergenceError, save_filter_json


# Flag -> (dotted config path of the value it overrides, argparse options). The path is also the flag's dest.
OVERRIDES = {
    "--backend": ("predictor.backend", {"choices": ["mock", "remote"]}),
    "--seed": ("observation.seed", {"type": int}),
    "--ratio": ("observation.ratio", {"type": float}),
    "--noise-variance": ("observation.noise_variance", {"type": float}),
    "--t-split": ("t_split", {"type": int}),
    "--repeats": ("repeats", {"type": int}),
    "--precision": ("precision", {"type": int}),
    "--output-dir": ("output_dir", {}),
    "--transcript": ("transcript", {"action": "store_const", "const": True}),
    "--baselines": ("baselines", {"type": lambda text: [b for b in text.split(",") if b], "metavar": "NAME,..."}),
}


def _load_with_overrides(args) -> RunConfig:
    with open(args.config, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # also a JSONDecodeError
            raise ValueError(f"{args.config}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{args.config}: config must be an object")
    for path, _ in OVERRIDES.values():
        value = getattr(args, path)
        if value is None:
            continue
        section, _, key = path.rpartition(".")
        target = payload.setdefault(section, {}) if section else payload
        if not isinstance(target, dict):
            raise ValueError(f"config key '{section}' must be an object")
        target[key] = value
    return RunConfig.from_dict(payload)


def _add_config_command(sub, name: str, help_text: str, func) -> argparse.ArgumentParser:
    """Subcommand ``name``, which reads ``--config`` and takes every flag in ``OVERRIDES``."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", required=True, help="JSON run configuration")
    for flag, (path, options) in OVERRIDES.items():
        p.add_argument(flag, dest=path, **{"help": f"override {path}", **options})
    p.set_defaults(func=func)
    return p


def _print_aggregates(report) -> None:
    for name, metrics in report.method_aggregates.items():
        print(
            f"{name}: RMSE {format_aggregate(metrics['rmse'])}  MAE {format_aggregate(metrics['mae'])}"
        )


def _write_text(text: str, out, what: str) -> None:
    """Write ``text`` to the file ``out``, or to standard output without one."""
    if out:
        with atomic_write(out) as fh:
            fh.write(text)
        print(f"{what} written to {out}")
    else:
        sys.stdout.write(text)


def _cmd_run(args, with_primary: bool = True) -> int:
    cfg = _load_with_overrides(args)
    _print_aggregates(execute_run(cfg, with_primary=with_primary).report)
    if cfg.output_dir:
        print(f"artifacts written to {cfg.output_dir}")
    return 0


def _cmd_train_filter(args) -> int:
    cfg = _load_with_overrides(args)
    _, result = mask_and_train(prepare_run(cfg), cfg, 0)
    save_filter_json(args.out, result)
    print(f"filter fitted ({result.stop_reason}), training MAE {result.mae_trace[-1]:.6f}")
    print(f"filter written to {args.out}")
    return 0


def _cmd_render_prompts(args) -> int:
    """The first repeat's first test step, walked by ``run_repeat`` with the mock answering: no call, no file."""
    cfg = _load_with_overrides(args)
    cfg = dataclasses.replace(cfg, transcript=True, output_dir=None,
                              predictor=dataclasses.replace(cfg.predictor, backend="mock"))
    ctx = prepare_run(cfg)
    first = TimeVaryingSignal(ctx.test_signal.values[:, :1], t0=ctx.test_signal.t0)
    result = run_repeat(dataclasses.replace(ctx, test_signal=first), cfg, 0, (PRIMARY_METHOD,))
    prompts = dict.fromkeys(entry["prompt"] for entry in result.transcript if entry["prompt"] is not None)
    _write_text("\n".join([render_system_prompt(), *prompts]) + "\n", args.out, "prompts")
    return 0


def _cmd_report(args) -> int:
    reports = []
    for path in args.inputs:
        with open(path, encoding="utf-8") as fh:
            try:
                reports.append(RunReport.from_dict(json.load(fh)))
            except ValueError as exc:  # also a JSONDecodeError
                raise ValueError(f"{path}: {exc}") from None
    text = render_markdown_table(reports, "rmse") + "\n" + render_markdown_table(reports, "mae")
    _write_text(text, args.out, "merged table")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphfill",
        description="Online graph-signal reconstruction with a spectral denoiser "
        "and a text-completion predictor for missing nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_config_command(sub, "run", "full online reconstruction run", _cmd_run)
    p_train = _add_config_command(sub, "train-filter", "train and export the spectral filter only", _cmd_train_filter)
    p_train.add_argument("--out", default="filter.json", help="output filter JSON path")
    _add_config_command(sub, "baseline", "run the selected baselines only",
                        functools.partial(_cmd_run, with_primary=False))
    p_render = _add_config_command(sub, "render-prompts", "emit the first test step's prompts without any backend",
                                   _cmd_render_prompts)
    p_render.add_argument("--out", help="output text file (default: stdout)")

    p_report = sub.add_parser("report", help="merge run reports into markdown tables")
    p_report.add_argument("--inputs", nargs="+", required=True, help="report JSON files")
    p_report.add_argument("--out", help="output markdown path (default: stdout)")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FilterDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
