"""Command-line entry points: run, train-filter, baseline, render-prompts, report."""
import argparse
import json
import sys

from .files import atomic_write
from .metrics import RunReport, format_aggregate, render_markdown_table
from .prompts import prompt_groups, render_system_prompt, render_user_prompt
from .runner import (
    RunConfig,
    execute_run,
    init_estimate,
    mask_and_train,
    observe_step,
    prepare_run,
    run_online,
    step_tasks,
)
from .spectral import FilterDivergenceError, denoise, save_filter_json


# argparse dest -> dotted config path of the value it overrides.
OVERRIDES = {
    "backend": "predictor.backend",
    "seed": "observation.seed",
    "ratio": "observation.ratio",
    "noise_variance": "observation.noise_variance",
    "t_split": "t_split",
    "repeats": "repeats",
    "precision": "precision",
    "output_dir": "output_dir",
    "transcript": "transcript",
    "baselines": "baselines",
}


def _load_with_overrides(args) -> RunConfig:
    with open(args.config, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("config must be an object")
    for dest, path in OVERRIDES.items():
        value = getattr(args, dest)
        if value is None:
            continue
        section, _, key = path.rpartition(".")
        target = payload.setdefault(section, {}) if section else payload
        if not isinstance(target, dict):
            raise ValueError(f"config key '{section}' must be an object")
        target[key] = value
    return RunConfig.from_dict(payload)


def _add_common_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--backend", choices=["mock", "remote"], help="override predictor backend")
    p.add_argument("--seed", type=int, help="override observation seed")
    p.add_argument("--ratio", type=float, help="override observation ratio")
    p.add_argument("--noise-variance", type=float, dest="noise_variance")
    p.add_argument("--t-split", type=int, dest="t_split")
    p.add_argument("--repeats", type=int)
    p.add_argument("--precision", type=int)
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--transcript", action="store_const", const=True, help="log prompts and completions")
    p.add_argument("--baselines", type=lambda text: [b for b in text.split(",") if b],
                   help="comma-separated baseline names")


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


def _cmd_run(args) -> int:
    cfg = _load_with_overrides(args)
    _print_aggregates(run_online(cfg))
    if cfg.output_dir:
        print(f"artifacts written to {cfg.output_dir}")
    return 0


def _cmd_train_filter(args) -> int:
    cfg = _load_with_overrides(args)
    _, result = mask_and_train(prepare_run(cfg), cfg, cfg.observation.seed)
    save_filter_json(args.out, result, cfg.train)
    final = result.mae_trace[-1] if result.mae_trace.size else float("nan")
    print(f"trained {result.mae_trace.size} steps ({result.stop_reason}), final MAE {final:.6f}")
    print(f"filter written to {args.out}")
    return 0


def _cmd_baseline(args) -> int:
    _print_aggregates(execute_run(_load_with_overrides(args), with_primary=False).report)
    return 0


def _cmd_render_prompts(args) -> int:
    cfg = _load_with_overrides(args)
    ctx = prepare_run(cfg)
    model, result = mask_and_train(ctx, cfg, cfg.observation.seed)
    x_prev = init_estimate(ctx.train_signal, model)
    obs = observe_step(ctx, model, 0)
    tasks = step_tasks(ctx, cfg, model, denoise(result.filter, ctx.basis, obs, x_prev), x_prev, obs.t)
    groups = prompt_groups(tasks, cfg.predictor.multi_task_prompt)
    lines = [render_system_prompt()] + [render_user_prompt(group) for group in groups]
    _write_text("\n".join(lines) + "\n", args.out, "prompts")
    return 0


def _cmd_report(args) -> int:
    reports = []
    for path in args.inputs:
        with open(path, encoding="utf-8") as fh:
            reports.append(RunReport.from_dict(json.load(fh)))
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

    p_run = sub.add_parser("run", help="full online reconstruction run")
    _add_common_overrides(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_train = sub.add_parser("train-filter", help="train and export the spectral filter only")
    _add_common_overrides(p_train)
    p_train.add_argument("--out", default="filter.json", help="output filter JSON path")
    p_train.set_defaults(func=_cmd_train_filter)

    p_base = sub.add_parser("baseline", help="run the selected baselines only")
    _add_common_overrides(p_base)
    p_base.set_defaults(func=_cmd_baseline)

    p_render = sub.add_parser(
        "render-prompts", help="emit the first test step's prompts without any backend"
    )
    _add_common_overrides(p_render)
    p_render.add_argument("--out", help="output text file (default: stdout)")
    p_render.set_defaults(func=_cmd_render_prompts)

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
