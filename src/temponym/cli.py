"""temponym command line interface.

Exit codes: 0 success, 2 usage error, 3 data error, 4 partial results
(some records could not be resolved).

Each command is a fresh process, so this module imports at the top only
what the option declarations need; a command imports the rest of the
package itself. Commands call through the module objects
(``dataset_mod.load_index``), never through names bound at import.
"""
from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import click

from . import errors
from . import shifts as shifts_mod
from .model import NAMSOR_LESLIE_REFERENCE

EXIT_DATA_ERROR = 3
EXIT_PARTIAL = 4


# Option callbacks: a BadParameter raised in one becomes a usage error naming the option.
def parse_year_range(ctx, param, text: str | None) -> tuple[int, int] | None:
    """``(START, END)`` of a ``START..END`` year range; END may not precede START."""
    if text is None:
        return None
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise click.BadParameter(f"expected START..END, got {text!r}")
    if lo > hi:
        raise click.BadParameter(f"{text!r} ends before it starts")
    return lo, hi


def _year_list(ctx, param, text: str) -> list[int]:
    """The years of a comma-separated list or of a ``START..END`` range.

    Every year must lie in [MIN_YEAR, MAX_YEAR]; a range is checked before
    its list is built.
    """
    from .dataset import MAX_YEAR, MIN_YEAR

    if ".." in text:
        lo, hi = parse_year_range(ctx, param, text)
        years = range(lo, hi + 1)
    else:
        try:
            years = [int(year) for year in text.split(",")]
        except ValueError:
            raise click.BadParameter(
                f"expected comma-separated years or START..END, got {text!r}")
        lo, hi = min(years), max(years)
    if lo < MIN_YEAR or hi > MAX_YEAR:
        raise click.BadParameter(f"years must lie in {MIN_YEAR}..{MAX_YEAR}, got {text!r}")
    return list(years)


def _finite_non_negative(ctx, param, value: float) -> float:
    """A finite number >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise click.BadParameter(f"must be a finite number >= 0, got {value}")
    return value


def _name_list(ctx, param, text: str | None) -> list[str] | None:
    """The names of a comma-separated list; None when it names none."""
    return [name.strip() for name in (text or "").split(",") if name.strip()] or None


def _names_file(ctx, param, path: str | None) -> list[str] | None:
    """The names in a file, one per line."""
    if path is None:
        return None
    from . import dataset as dataset_mod

    return [line.strip() for line in dataset_mod.read_text(path).splitlines() if line.strip()]


def _cohort(ctx, param, text: str):
    """The ``audit.CohortModel`` of a ``--cohort`` spec."""
    from . import audit as audit_mod

    try:
        return audit_mod.CohortModel.parse(text)
    except errors.ConfigError as exc:
        raise click.BadParameter(str(exc))


def _load_data(index_path, data_dir):
    from . import dataset as dataset_mod

    if index_path and data_dir:
        raise click.UsageError("--index and --dir are mutually exclusive")
    if index_path:
        return dataset_mod.load_index(index_path)
    directory = Path(data_dir) if data_dir else dataset_mod.bundled_sample_dir()
    return dataset_mod.load_directory(directory)


def _emit(payload, fmt: str, csv_rows=None, csv_header=None) -> None:
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        out = io.StringIO()
        writer = csv.writer(out)
        if csv_header:
            writer.writerow(csv_header)
        writer.writerows(csv_rows or [])
        click.echo(out.getvalue().rstrip("\n"))


def with_data_options(fn):
    """Adds ``--index`` and ``--dir``, the two places a command reads data from."""
    fn = click.option("--dir", "data_dir", type=click.Path(exists=True, file_okay=False),
                      default=None,
                      help="Directory of yobYYYY.txt files (default: bundled sample).")(fn)
    return click.option("--index", "index_path", type=click.Path(exists=True), default=None,
                        help="Persisted index file produced by `temponym ingest`.")(fn)


class _Main(click.Group):
    """The top-level group: a data error from any command exits 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except errors.TemponymError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DATA_ERROR)


def _check_config(defaults, group: click.Group, prefix: str = "") -> None:
    """Each section a command reads from ``--config`` must be a JSON object."""
    for name, command in group.commands.items():
        section = defaults.get(name)
        if section is None:
            continue
        if not isinstance(section, dict):
            raise click.BadParameter(f"section '{prefix}{name}' must hold a JSON object")
        if isinstance(command, click.Group):
            _check_config(section, command, f"{prefix}{name}.")


def _read_config(ctx, param, fh) -> None:
    """Makes the JSON object of ``--config`` the default values of every command."""
    if fh is None:
        return
    try:
        defaults = json.load(fh)
    except ValueError as exc:
        raise click.BadParameter(f"not JSON ({exc})")
    if not isinstance(defaults, dict):
        raise click.BadParameter("must hold a JSON object")
    _check_config(defaults, ctx.command)
    ctx.default_map = defaults


@click.group(cls=_Main)
@click.option("--config", type=click.File(encoding="utf-8"), metavar="PATH",
              callback=_read_config, expose_value=False,
              help="JSON file of default option values, keyed by subcommand.")
def main():
    """Temporally-aware name-gender analysis over SSA yearly name data."""


@main.command()
@click.option("--dir", "data_dir", type=click.Path(exists=True, file_okay=False),
              required=True)
@click.option("--years", default=None, callback=parse_year_range,
              help="Restrict to a range, e.g. 1880..2023.")
@click.option("--strict/--lenient", default=True,
              help="Abort on invalid rows (default) or skip them with a tally.")
@click.option("--out", "out_path", type=click.Path(), required=True)
def ingest(data_dir, years, strict, out_path):
    """Parse SSA yearly files and persist a checksummed index."""
    from . import dataset as dataset_mod

    wanted = range(years[0], years[1] + 1) if years else None
    out_dir = Path(out_path).parent
    if not out_dir.is_dir():  # checked before the archive is parsed
        raise errors.TemponymError(f"{out_path}: {out_dir} is not an existing directory")
    data = dataset_mod.load_directory(data_dir, years=wanted, strict=strict)
    dataset_mod.save_index(data, out_path)
    births = sum(data.female) + sum(data.male)
    skipped = sum(data.skipped)
    click.echo(
        f"indexed {len(data.years_loaded)} years, "
        f"{births} births, {len(data.names)} names"
        + (f", {skipped} rows skipped" if skipped else "")
    )


@main.command()
@with_data_options
@click.option("--name", required=True)
@click.option("--year", type=int, default=None)
@click.option("--window", type=click.IntRange(min=0), default=None,
              help="Half-width around --year.")
@click.option("--pooled", default=None, callback=parse_year_range,
              help="Pooled range, e.g. 1880..2020.")
@click.option("--policy", type=click.Choice(["majority", "t95"]), default="majority")
@click.option("--fold-diacritics", is_flag=True, default=False)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def query(index_path, data_dir, name, year, window, pooled, policy, fold_diacritics, fmt):
    """Female-gender probability for a name in a temporal context."""
    if year is None and pooled is None:
        raise click.UsageError("provide --year or --pooled")
    from . import model as model_mod

    data = _load_data(index_path, data_dir)
    chosen_policy = model_mod.MAJORITY if policy == "majority" else model_mod.T95
    if pooled is not None:
        prob = model_mod.p_female_pooled(
            data, name, pooled, fold_diacritics=fold_diacritics
        )
    elif window:
        prob = model_mod.p_female_windowed(
            data, name, year, window, fold_diacritics=fold_diacritics
        )
    else:
        prob = model_mod.p_female(data, name, year, fold_diacritics=fold_diacritics)
    label = model_mod.classify(prob, chosen_policy)
    payload = {
        "name": prob.name,
        "context": prob.context,
        "p_female": round(prob.p_female, 6),
        "female_count": prob.female_count,
        "male_count": prob.male_count,
        "support": prob.support,
        "label": label.value,
    }
    _emit(
        payload, fmt,
        csv_header=["name", "context", "p_female", "female_count", "male_count", "label"],
        csv_rows=[[prob.name, prob.context, f"{prob.p_female:.4f}",
                   prob.female_count, prob.male_count, label.value]],
    )


@main.command()
@with_data_options
@click.option("--y1", type=int, default=shifts_mod.DEFAULT_YEAR_PAIR[0], show_default=True)
@click.option("--y2", type=int, default=shifts_mod.DEFAULT_YEAR_PAIR[1], show_default=True)
@click.option("--weighted", is_flag=True, default=False)
@click.option("--top", type=click.IntRange(min=0), default=50, show_default=True)
@click.option("--min-support", type=click.IntRange(min=0),
              default=shifts_mod.DEFAULT_MIN_SUPPORT, show_default=True)
@click.option("--min-delta", type=float, default=shifts_mod.DEFAULT_MIN_ABS_DELTA,
              callback=_finite_non_negative, show_default=True,
              help="Qualifying |shift| threshold (x100 scale).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def shift(index_path, data_dir, y1, y2, weighted, top, min_support, min_delta, fmt):
    """Rank gender shifts between two years; reports summary statistics."""
    data = _load_data(index_path, data_dir)
    entries = shifts_mod.rank_shifts(
        data, y1, y2, min_support_each_year=min_support, top_k=top, weighted=weighted
    )
    qualifying = shifts_mod.qualifying_names(
        data, y1, y2, min_support=min_support, min_abs_delta=min_delta
    )
    stats = (
        shifts_mod.shift_statistics(entries, use_weighted=weighted) if entries else None
    )
    meta = {
        "y1": y1, "y2": y2, "weighted": weighted,
        "min_support": min_support, "min_abs_delta": min_delta,
        "qualifying_count": len(qualifying),
    }
    payload = {
        "meta": meta,
        "statistics": stats.__dict__ if stats else None,
        "entries": [entry.__dict__ for entry in entries],
    }
    _emit(payload, fmt,
          csv_header=["rank", "name", "p1", "p2", "delta_scaled",
                      "support_y1", "support_y2", "weight", "weighted_shift"],
          csv_rows=[[rank, e.name, f"{e.p1:.4f}", f"{e.p2:.4f}", f"{e.delta_scaled:.4f}",
                     e.support_y1, e.support_y2, f"{e.weight:.1f}", f"{e.weighted_shift:.1f}"]
                    for rank, e in enumerate(entries, start=1)])
    if fmt == "csv":
        click.echo(f"# qualifying names at |delta|>={min_delta}: {len(qualifying)}",
                   err=True)


@main.command()
@with_data_options
@click.option("--year", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def ambiguity(index_path, data_dir, year, fmt):
    """Share of children given a name used for both sexes that year."""
    from . import model as model_mod

    data = _load_data(index_path, data_dir)
    share = model_mod.ambiguous_name_share(data, year)
    _emit({"year": year, "ambiguous_share": share}, fmt,
          csv_header=["year", "ambiguous_share"],
          csv_rows=[[year, f"{share:.4f}"]])


@main.command(name="audit")
@with_data_options
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), default=None,
              help="Corpus CSV (default: the bundled Leslie fixture).")
@click.option("--cohort", default="fixed:35", show_default=True, callback=_cohort,
              help="fixed:OFFSET, uniform:OFFSET:HALF or triangular:OFFSET:HALF.")
@click.option("--atemporal", default="1880..2020", show_default=True,
              callback=parse_year_range)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def audit_cmd(index_path, data_dir, corpus_path, cohort, atemporal, fmt):
    """Temporal vs atemporal expected-female audit of a corpus."""
    from . import audit as audit_mod

    data = _load_data(index_path, data_dir)
    records = audit_mod.load_corpus_csv(corpus_path)
    result = audit_mod.audit_corpus(
        records, data, cohort_model=cohort, atemporal_range=atemporal
    )
    payload = {
        "config": result.config,
        "rows": [
            {**row.__dict__, "overcount": row.overcount} for row in result.rows
        ],
        "totals": {
            "records": result.total_records,
            "unresolved": result.total_unresolved,
            "overcount": result.total_overcount,
        },
    }
    _emit(payload, fmt,
          csv_header=["period", "n_records", "n_unresolved",
                      "expected_female_temporal", "expected_female_atemporal",
                      "overcount"],
          csv_rows=[[row.period, row.n_records, row.n_unresolved,
                     f"{row.expected_female_temporal:.4f}",
                     f"{row.expected_female_atemporal:.4f}",
                     f"{row.overcount:.4f}"] for row in result.rows])
    if result.total_unresolved:
        sys.exit(EXIT_PARTIAL)


@main.command()
@with_data_options
@click.option("--names", default=None, callback=_name_list, help="Comma-separated names.")
@click.option("--names-file", type=click.Path(exists=True), default=None,
              callback=_names_file, help="File with one name per line.")
@click.option("--ssa-year", type=int, default=1925, show_default=True)
@click.option("--services", "services_spec", default="fixtures", show_default=True,
              help='"fixtures" or "genderize-live:URL".')
@click.option("--fixture-file", type=click.Path(exists=True), default=None)
@click.option("--cache-dir", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def compare(index_path, data_dir, names, names_file, ssa_year, services_spec,
            fixture_file, cache_dir, fmt):
    """Compare third-party gender predictions against SSA ground truth."""
    from . import services

    name_list = names or names_file
    if name_list is None:
        raise click.UsageError("provide --names or --names-file")

    data = _load_data(index_path, data_dir)
    if services_spec == "fixtures":
        configs = services.fixture_configs(fixture_file)
    elif services_spec.startswith("genderize-live:"):
        configs = [services.ServiceConfig("genderize", services_spec.split(":", 1)[1])]
    else:
        raise errors.ConfigError(f"unknown services spec {services_spec!r}")
    cache = services.PredictionCache(cache_dir) if cache_dir else None
    rows = services.comparison_table(name_list, data, ssa_year, configs, cache=cache)
    metrics = services.divergence_metrics(rows) if rows else None

    payload = {
        "ssa_year": ssa_year,
        "rows": [
            {
                "name": row.name,
                "ssa_p_female": row.ssa_p_female,
                "services": {
                    sid: {
                        "label": p.predicted_label,
                        "p_female": p.p_female,
                        "divergence": row.divergence(sid),
                    }
                    for sid, p in row.predictions.items()
                },
                "errors": row.cell_errors,
            }
            for row in rows
        ],
        "metrics": {
            "per_service": metrics["per_service"],
            "label_disagreement": {
                f"{a}/{b}": n for (a, b), n in metrics["label_disagreement"].items()
            },
        } if metrics else None,
    }
    service_ids = sorted({sid for row in rows for sid in row.predictions})
    header = ["name", "ssa_p_female"]
    for sid in service_ids:
        header += [f"{sid}_label", f"{sid}_p_female", f"{sid}_divergence"]
    csv_rows = []
    for row in rows:
        out = [row.name,
               f"{row.ssa_p_female:.4f}" if row.ssa_p_female is not None else ""]
        for sid in service_ids:
            p = row.predictions.get(sid)
            d = row.divergence(sid)
            out += [
                p.predicted_label if p else "",
                f"{p.p_female:.4f}" if p and p.p_female is not None else "",
                f"{d:.4f}" if d is not None else "",
            ]
        csv_rows.append(out)
    _emit(payload, fmt, csv_header=header, csv_rows=csv_rows)
    if any(row.cell_errors for row in rows):
        sys.exit(EXIT_PARTIAL)


@main.group()
def plot():
    """Emit plot-ready data series (no rendering)."""


@plot.command()
@with_data_options
@click.option("--names", default=None, callback=_name_list, help="Comma-separated names.")
@click.option("--top-shifts", type=click.IntRange(min=0), default=None,
              help="Instead of --names, use the top-N weighted shifting names.")
@click.option("--years", default="1925,1950,1975,2000", show_default=True,
              callback=_year_list, help="Comma-separated years or a range like 1925..2000.")
@click.option("--y1", type=int, default=shifts_mod.DEFAULT_YEAR_PAIR[0], show_default=True)
@click.option("--y2", type=int, default=shifts_mod.DEFAULT_YEAR_PAIR[1], show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def trajectories(index_path, data_dir, names, top_shifts, years, y1, y2, fmt):
    """p(F) trajectories for named or top-shifting names."""
    from . import report

    data = _load_data(index_path, data_dir)
    if top_shifts is not None:
        entries = shifts_mod.rank_shifts(data, y1, y2, top_k=top_shifts, weighted=True)
        names = [e.name for e in entries]
    elif names is None:
        raise click.UsageError("provide --names or --top-shifts")
    series = report.emit_trajectories(data, names, years)
    _emit_series(series, fmt)


@plot.command()
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), default=None,
              help="Labeled corpus CSV (default: the bundled Leslie fixture).")
@click.option("--reference", type=float, default=None,
              help=f"Constant reference p(F) line (e.g. {NAMSOR_LESLIE_REFERENCE}).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def bubbles(corpus_path, reference, fmt):
    """Year-by-year publication bubbles per known-gender stratum."""
    from . import audit as audit_mod
    from . import report

    records = audit_mod.load_corpus_csv(corpus_path)
    series = report.emit_bubble_series(records, reference_value=reference)
    _emit_series(series, fmt)


def _emit_series(series, fmt: str) -> None:
    if fmt == "json":
        payload = [
            {"series_id": s.series_id,
             "points": [{"x": x, "y": y, "size": size} for x, y, size in s.points]}
            for s in series
        ]
        click.echo(json.dumps(payload, indent=2))
    else:
        rows = [
            [s.series_id, x, f"{y:.6f}", "" if size is None else size]
            for s in series for x, y, size in s.points
        ]
        _emit(None, "csv", csv_header=["series_id", "x", "y", "size"], csv_rows=rows)


if __name__ == "__main__":
    main()
