"""temponym command line interface.

Exit codes: 0 success, 2 usage error, 3 data error, 4 partial results
(some records could not be resolved).

Each command is a fresh process, so a start imports and builds only what
its command runs. At the top this module imports the standard library and
``errors``, no data module: ``temponym --help`` lists the commands from the
docstrings of their functions here. A command's options are declared by its
``_*_options`` function, which runs when that command is parsed, or when a
``--config`` section for it is checked; a default taken from a data module
(``shifts``, ``model``) is read there. A command imports the rest of the
package itself. Commands call through the module objects
(``dataset_mod.load_index``), never through names bound at import.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import errors

EXIT_USAGE = 2
EXIT_DATA_ERROR = 3
EXIT_PARTIAL = 4


class UsageError(Exception):
    """Options that do not fit together: the command exits 2 with its usage."""


def _ascii_int(text: str) -> int:
    """``int(text)`` for ASCII digits with an optional leading ``-``; else a
    ValueError. int() alone also takes "+1", "1_0", " 1" and "١"."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


# Option types: an ArgumentTypeError raised in one becomes a usage error naming
# the option. argparse applies them to string defaults too, ``--config`` values
# among them.
def parse_year_range(text: str) -> tuple[int, int]:
    """``(START, END)`` of a ``START..END`` year range; END may not precede START."""
    try:
        lo, hi = text.split("..")
        lo, hi = _ascii_int(lo), _ascii_int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected START..END, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"{text!r} ends before it starts")
    return lo, hi


def _year_list(text: str) -> list[int]:
    """The years of a comma-separated list or of a ``START..END`` range.

    Every year must lie in [MIN_YEAR, MAX_YEAR]; a range is checked before
    its list is built.
    """
    from .dataset import MAX_YEAR, MIN_YEAR

    if ".." in text:
        lo, hi = parse_year_range(text)
        years = range(lo, hi + 1)
    else:
        try:
            years = [_ascii_int(year) for year in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated years or START..END, got {text!r}") from None
        lo, hi = min(years), max(years)
    if lo < MIN_YEAR or hi > MAX_YEAR:
        raise argparse.ArgumentTypeError(
            f"years must lie in {MIN_YEAR}..{MAX_YEAR}, got {text!r}")
    return list(years)


def _integer(text: str) -> int:
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer.") from None


def _count(text: str) -> int:
    """An integer >= 0."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not in the range x>=0.")
    return value


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a valid float.") from None


def _finite_non_negative(text: str) -> float:
    """A finite number >= 0."""
    value = _number(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {value}")
    return value


def _probability(text: str) -> float:
    """A number in [0, 1]."""
    value = _number(text)
    if not 0 <= value <= 1:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {value}")
    return value


def _choice(*choices: str):
    """The type of an option whose value is one of ``choices``."""
    def choice(text: str) -> str:
        if text not in choices:
            listed = ", ".join(map(repr, choices))
            raise argparse.ArgumentTypeError(f"{text!r} is not one of {listed}.")
        return text
    return choice


def _existing(text: str) -> str:
    """A path that exists."""
    if not os.path.exists(text):
        raise argparse.ArgumentTypeError(f"Path {text!r} does not exist.")
    return text


def _directory(text: str) -> str:
    """A directory that exists."""
    if not os.path.isdir(_existing(text)):
        raise argparse.ArgumentTypeError(f"Directory {text!r} is a file.")
    return text


def _name_list(text: str) -> list[str] | None:
    """The names of a comma-separated list; None when it names none."""
    return [name.strip() for name in text.split(",") if name.strip()] or None


def _cohort(text: str):
    """The ``audit.CohortModel`` of a ``--cohort`` spec."""
    from . import audit as audit_mod

    try:
        return audit_mod.CohortModel.parse(text)
    except errors.ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_data(index_path, data_dir, names=None):
    """The table of ``--index`` or ``--dir``; from an index, given the names a
    command reads, only theirs (``load_index``)."""
    from . import dataset as dataset_mod

    if index_path and data_dir:
        raise UsageError("'--index' and '--dir' are mutually exclusive")
    if index_path:
        return dataset_mod.load_index(index_path, names)
    directory = Path(data_dir) if data_dir else dataset_mod.bundled_sample_dir()
    return dataset_mod.load_directory(directory)


def _echo(text: str) -> None:
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader left early (``temponym shift | head -1``): drop the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(payload, fmt: str, csv_rows=None, csv_header=None) -> None:
    if fmt == "json":
        import json

        _echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        import csv
        import io

        out = io.StringIO()
        writer = csv.writer(out)
        if csv_header:
            writer.writerow(csv_header)
        writer.writerows(csv_rows or [])
        _echo(out.getvalue().rstrip("\n"))


def ingest(data_dir, years, strict, out_path):
    """Parse SSA yearly files and persist a checksummed index."""
    from . import dataset as dataset_mod

    wanted = range(years[0], years[1] + 1) if years else None
    out_dir = Path(out_path).parent
    if not out_dir.is_dir():  # checked before the archive is parsed
        raise errors.TemponymError(f"{out_path}: {out_dir} is not an existing directory")
    data = dataset_mod.load_directory(data_dir, years=wanted, strict=strict)
    dataset_mod.save_index(data, out_path)
    skipped = sum(data.skipped)
    _echo(
        f"indexed {len(data.years_loaded)} years, "
        f"{data.births} births, {len(data.names)} names"
        + (f", {skipped} rows skipped" if skipped else "")
    )


def query(index_path, data_dir, name, year, window, pooled, policy, fold_diacritics, fmt):
    """Female-gender probability for a name in a temporal context."""
    if pooled is not None:
        for option, value in (("--year", year), ("--window", window)):
            if value is not None:
                raise UsageError(f"'--pooled' and '{option}' are mutually exclusive")
    elif year is None:
        raise UsageError("provide '--year' or '--pooled'")
    from . import model as model_mod

    data = _load_data(index_path, data_dir, [name])
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


def shift(index_path, data_dir, y1, y2, weighted, top, min_support, min_delta, fmt):
    """Rank gender shifts between two years; reports summary statistics."""
    from . import shifts as shifts_mod

    data = _load_data(index_path, data_dir)
    entries, qualifying = shifts_mod.ranked_and_qualifying(
        data, y1, y2, min_support_each_year=min_support, top_k=top, weighted=weighted,
        min_abs_delta=min_delta)
    stats = (
        shifts_mod.shift_statistics(entries, use_weighted=weighted) if entries else None
    )
    meta = {
        "y1": y1, "y2": y2, "weighted": weighted,
        "min_support": min_support, "min_abs_delta": min_delta,
        "qualifying_count": qualifying,
    }
    payload = {
        "meta": meta,
        "statistics": stats._asdict() if stats else None,
        "entries": [entry._asdict() for entry in entries],
    }
    _emit(payload, fmt,
          csv_header=["rank", "name", "p1", "p2", "delta_scaled",
                      "support_y1", "support_y2", "weight", "weighted_shift"],
          csv_rows=[[rank, e.name, f"{e.p1:.4f}", f"{e.p2:.4f}", f"{e.delta_scaled:.4f}",
                     e.support_y1, e.support_y2, f"{e.weight:.1f}", f"{e.weighted_shift:.1f}"]
                    for rank, e in enumerate(entries, start=1)])
    if fmt == "csv":
        print(f"# qualifying names at |delta|>={min_delta}: {qualifying}",
              file=sys.stderr)


def ambiguity(index_path, data_dir, year, fmt):
    """Share of children given a name used for both sexes that year."""
    from . import model as model_mod

    data = _load_data(index_path, data_dir)
    share = model_mod.ambiguous_name_share(data, year)
    _emit({"year": year, "ambiguous_share": share}, fmt,
          csv_header=["year", "ambiguous_share"],
          csv_rows=[[year, f"{share:.4f}"]])


def audit_cmd(index_path, data_dir, corpus_path, cohort, atemporal, fmt):
    """Temporal vs atemporal expected-female audit of a corpus."""
    from . import audit as audit_mod

    data = _load_data(index_path, data_dir)
    records = audit_mod.load_corpus_csv(corpus_path)
    rows = audit_mod.audit_corpus(records, data, cohort_model=cohort, atemporal_range=atemporal)
    totals = {"records": sum(row.n_records for row in rows),
              "unresolved": sum(row.n_unresolved for row in rows),
              "overcount": sum(row.overcount for row in rows)}
    payload = {
        "config": {"cohort_model": str(cohort),
                   "atemporal_range": f"{atemporal[0]}..{atemporal[1]}"},
        "rows": [{**row._asdict(), "overcount": row.overcount} for row in rows],
        "totals": totals,
    }
    _emit(payload, fmt,
          csv_header=["period", "n_records", "n_unresolved",
                      "expected_female_temporal", "expected_female_atemporal",
                      "overcount"],
          csv_rows=[[row.period, row.n_records, row.n_unresolved,
                     f"{row.expected_female_temporal:.4f}",
                     f"{row.expected_female_atemporal:.4f}",
                     f"{row.overcount:.4f}"] for row in rows])
    if totals["unresolved"]:
        sys.exit(EXIT_PARTIAL)


def compare(index_path, data_dir, names, names_file, ssa_year, services_spec,
            fixture_file, cache_dir, fmt):
    """Compare third-party gender predictions against SSA ground truth."""
    from . import services

    if names is not None and names_file is not None:
        raise UsageError("'--names' and '--names-file' are mutually exclusive")
    if names_file is not None:
        from . import dataset as dataset_mod

        lines = dataset_mod.read_text(names_file).splitlines()
        names = [line.strip() for line in lines if line.strip()] or None
    if names is None:
        raise UsageError("provide '--names' or '--names-file'")

    data = _load_data(index_path, data_dir, names)
    if services_spec == "fixtures":
        configs = services.fixture_configs(fixture_file)
    elif services_spec.startswith("genderize-live:"):
        configs = [services.ServiceConfig("genderize", services_spec.split(":", 1)[1])]
    else:
        raise errors.ConfigError(f"unknown services spec {services_spec!r}")
    cache = services.PredictionCache(cache_dir) if cache_dir else None
    rows = services.comparison_table(names, data, ssa_year, configs, cache=cache)
    metrics = services.divergence_metrics(rows) if rows else None

    service_ids = sorted({sid for row in rows for sid in row.predictions})
    header = ["name", "ssa_p_female"]
    for sid in service_ids:
        header += [f"{sid}_label", f"{sid}_p_female", f"{sid}_divergence"]
    json_rows, csv_rows = [], []
    for row in rows:  # each row's JSON and CSV cells, one divergence per cell
        cells = {}
        out = [row.name, "" if row.ssa_p_female is None else f"{row.ssa_p_female:.4f}"]
        for sid in service_ids:
            p = row.predictions.get(sid)
            if p is None:
                out += ["", "", ""]
                continue
            d = row.divergence(sid)
            cells[sid] = {"label": p.predicted_label, "p_female": p.p_female, "divergence": d}
            out += [p.predicted_label, "" if p.p_female is None else f"{p.p_female:.4f}",
                    "" if d is None else f"{d:.4f}"]
        json_rows.append({"name": row.name, "ssa_p_female": row.ssa_p_female,
                          "services": cells, "errors": row.cell_errors})
        csv_rows.append(out)
    payload = {
        "ssa_year": ssa_year,
        "rows": json_rows,
        "metrics": {
            "per_service": metrics["per_service"],
            "label_disagreement": {
                f"{a}/{b}": n for (a, b), n in metrics["label_disagreement"].items()
            },
        } if metrics else None,
    }
    _emit(payload, fmt, csv_header=header, csv_rows=csv_rows)
    if any(row.cell_errors for row in rows):
        sys.exit(EXIT_PARTIAL)


def trajectories(index_path, data_dir, names, top_shifts, years, y1, y2, fmt):
    """p(F) trajectories for named or top-shifting names."""
    from . import report
    from . import shifts as shifts_mod

    if names is not None and top_shifts is not None:
        raise UsageError("'--names' and '--top-shifts' are mutually exclusive")
    data = _load_data(index_path, data_dir, names)
    if top_shifts is not None:
        entries = shifts_mod.rank_shifts(data, y1, y2, top_k=top_shifts, weighted=True)
        names = [e.name for e in entries]
    elif names is None:
        raise UsageError("provide '--names' or '--top-shifts'")
    series = report.emit_trajectories(data, names, years)
    _emit_series(series, fmt)


def bubbles(corpus_path, reference, fmt):
    """Year-by-year publication bubbles per known-gender stratum."""
    from . import audit as audit_mod
    from . import report

    records = audit_mod.load_corpus_csv(corpus_path)
    series = report.emit_bubble_series(records, reference_value=reference)
    _emit_series(series, fmt)


def _emit_series(series, fmt: str) -> None:
    if fmt == "json":
        import json

        payload = [
            {"series_id": s.series_id,
             "points": [{"x": x, "y": y, "size": size} for x, y, size in s.points]}
            for s in series
        ]
        _echo(json.dumps(payload, indent=2))
    else:
        rows = [
            [s.series_id, x, f"{y:.6f}", "" if size is None else size]
            for s in series for x, y, size in s.points
        ]
        _emit(None, "csv", csv_header=["series_id", "x", "y", "size"], csv_rows=rows)


class _Formatter(argparse.HelpFormatter):
    """Help and usage messages that begin ``Usage:``."""

    def add_usage(self, usage, actions, groups, prefix=None):
        super().add_usage(usage, actions, groups, "Usage: " if prefix is None else prefix)


class _Parser(argparse.ArgumentParser):
    """The parser of a command (``run``) or of a group of commands (``commands``).

    ``declare`` adds its options, or a group's commands; ``build`` calls it on
    first need, so a start builds only the parsers it uses. A usage error
    prints the usage and ``Error: MESSAGE`` and exits 2; a bad option value
    reads ``Invalid value for '--option': ...``.
    """

    def __init__(self, *args, run=None, declare=None, **kwargs):
        super().__init__(*args, formatter_class=_Formatter, allow_abbrev=False,
                         exit_on_error=False, **kwargs)
        self.run = run
        self.declare = declare
        self.commands: dict[str, _Parser] = {}
        # by long name without dashes (``min-support``): the ``--config`` keys
        self.options: dict[str, argparse.Action] = {}
        self.required_options: list[argparse.Action] = []
        self._subparsers_action = None

    def build(self) -> None:
        """Adds the options (or the commands) that ``declare`` declares, once."""
        declare, self.declare = self.declare, None
        if declare is not None:
            declare(self)

    def option(self, *flags, required=False, **kwargs) -> None:
        """An option; a required one may also take its value from ``--config``."""
        action = self.add_argument(*flags, **kwargs)
        self.options[action.option_strings[0].lstrip("-")] = action
        if required:
            self.required_options.append(action)

    def command(self, name: str, run=None, declare=None, doc: str | None = None) -> None:
        """A subcommand calling ``run`` with its option values, or a group if ``run`` is None."""
        if self._subparsers_action is None:
            self._subparsers_action = self.add_subparsers(
                title="commands", metavar="COMMAND", prog=self.prog, required=True)
        doc = doc or run.__doc__
        parser = self._subparsers_action.add_parser(
            name, help=doc, description=doc, run=run, declare=declare,
            usage="%(prog)s [OPTIONS]" if run else "%(prog)s [OPTIONS] COMMAND [ARGS]...")
        if run:
            parser.set_defaults(command=parser)
        self.commands[name] = parser

    def parse_known_args(self, args=None, namespace=None):
        self.build()
        try:
            return super().parse_known_args(args, namespace)
        except argparse.ArgumentError as exc:  # an option type's ArgumentTypeError among them
            name = exc.argument_name
            self.error(f"Invalid value for '{name}': {exc.message}" if name else exc.message)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"Try '{self.prog} --help' for help.\n\nError: {message}\n")


class _ReadConfig(argparse.Action):
    """``--config PATH``: a JSON object whose sections, keyed by command, set option defaults."""

    def __call__(self, parser, namespace, path, option_string=None):
        import json

        try:
            config = json.loads(Path(path).read_text(encoding="utf-8-sig"))  # drops a BOM
        except OSError as exc:
            raise argparse.ArgumentError(self, f"{path!r}: {exc.strerror or exc}") from None
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise argparse.ArgumentError(self, f"not JSON ({exc})") from None
        if not isinstance(config, dict):
            raise argparse.ArgumentError(self, "must hold a JSON object")
        self.apply(config, parser)

    def apply(self, config: dict, group: _Parser, prefix: str = "") -> None:
        """Checks every section against its command's parser and sets that command's defaults.

        A section is keyed by the options' long names without dashes. A value
        passes the check of the same value given on the command line, when its
        command runs, and it satisfies a required option; a null value is
        ignored. A section or key that names no command or option is an
        error, and so is an array, an object, or true or false for an option
        that takes a value.
        """
        for name, section in config.items():
            where = f"section '{prefix}{name}'"
            command = group.commands.get(name)
            if command is None:
                raise argparse.ArgumentError(self, f"{where} names no command")
            if section is None:
                continue
            if not isinstance(section, dict):
                raise argparse.ArgumentError(self, f"{where} must hold a JSON object")
            command.build()
            if command.run is None:
                self.apply(section, command, f"{prefix}{name}.")
                continue
            defaults = {}
            for key, value in section.items():
                action = command.options.get(key)
                if action is None:
                    raise argparse.ArgumentError(self, f"{where} has no option '{key}'")
                if value is None:
                    continue
                if action.nargs == 0:  # a flag; --lenient stores False
                    if not isinstance(value, bool):
                        raise argparse.ArgumentError(action, f"{value!r} is not true or false")
                    defaults[action.dest] = value == action.const
                elif isinstance(value, (bool, list, dict)):  # str() would pass "True" or "['a']"
                    kind = {list: "a JSON array", dict: "a JSON object"}.get(
                        type(value), str(value).lower())
                    raise argparse.ArgumentError(
                        self, f"{where} key '{key}' takes a string or a number, not {kind}")
                else:
                    defaults[action.dest] = str(value)  # argparse checks a string default like a value
            command.set_defaults(**defaults)


def _data_options(parser: _Parser) -> None:
    """``--index`` and ``--dir``, the two places a command reads data from."""
    parser.option("--index", dest="index_path", type=_existing, metavar="PATH",
                  help="Persisted index file produced by `temponym ingest`.")
    parser.option("--dir", dest="data_dir", type=_directory, metavar="DIRECTORY",
                  help="Directory of yobYYYY.txt files (default: bundled sample).")


def _format_option(parser: _Parser, *choices: str) -> None:
    """``--format``, defaulting to the first of ``choices``."""
    parser.option("--format", dest="fmt", type=_choice(*choices), default=choices[0],
                  metavar="{" + ",".join(choices) + "}")


def _ingest_options(p: _Parser) -> None:
    p.option("--dir", dest="data_dir", type=_directory, metavar="DIRECTORY", required=True,
             help="Directory of yobYYYY.txt files (required).")
    p.option("--years", type=parse_year_range, help="Restrict to a range, e.g. 1880..2023.")
    p.option("--strict", dest="strict", action="store_true", default=True,
             help="Abort on invalid rows (default).")
    p.option("--lenient", dest="strict", action="store_false",
             help="Skip invalid rows with a tally.")
    p.option("--out", dest="out_path", metavar="PATH", required=True,
             help="Index file to write (required).")


def _query_options(p: _Parser) -> None:
    _data_options(p)
    p.option("--name", required=True, help="(required)")
    p.option("--year", type=_integer)
    p.option("--window", type=_count, help="Half-width around --year (x>=0).")
    p.option("--pooled", type=parse_year_range,
             help="Pooled range, e.g. 1880..2020; not with --year or --window.")
    p.option("--policy", type=_choice("majority", "t95"), default="majority",
             metavar="{majority,t95}")
    p.option("--fold-diacritics", action="store_true")
    _format_option(p, "json", "csv")


def _shift_options(p: _Parser) -> None:
    from . import shifts as shifts_mod

    y1, y2 = shifts_mod.DEFAULT_YEAR_PAIR
    _data_options(p)
    p.option("--y1", type=_integer, default=y1, help="(default: %(default)s)")
    p.option("--y2", type=_integer, default=y2, help="(default: %(default)s)")
    p.option("--weighted", action="store_true")
    p.option("--top", type=_count, default=shifts_mod.DEFAULT_TOP, help="(default: %(default)s)")
    p.option("--min-support", type=_count, default=shifts_mod.DEFAULT_MIN_SUPPORT,
             help="(default: %(default)s)")
    p.option("--min-delta", type=_finite_non_negative,
             default=shifts_mod.DEFAULT_MIN_ABS_DELTA,
             help="Qualifying |shift| threshold (x100 scale; default: %(default)s).")
    _format_option(p, "csv", "json")


def _ambiguity_options(p: _Parser) -> None:
    _data_options(p)
    p.option("--year", type=_integer, required=True, help="(required)")
    _format_option(p, "json", "csv")


def _audit_options(p: _Parser) -> None:
    from . import audit as audit_mod

    first, last = audit_mod.DEFAULT_ATEMPORAL_RANGE
    _data_options(p)
    p.option("--corpus", dest="corpus_path", type=_existing, metavar="PATH",
             help="Corpus CSV (default: the bundled Leslie fixture).")
    p.option("--cohort", type=_cohort, default=f"fixed:{audit_mod.DEFAULT_COHORT_OFFSET}",
             help="fixed:OFFSET, uniform:OFFSET:HALF or triangular:OFFSET:HALF "
                  "(default: %(default)s).")
    p.option("--atemporal", type=parse_year_range, default=f"{first}..{last}",
             help="(default: %(default)s)")
    _format_option(p, "json", "csv")


def _compare_options(p: _Parser) -> None:
    _data_options(p)
    p.option("--names", type=_name_list, help="Comma-separated names.")
    p.option("--names-file", type=_existing, metavar="PATH",
             help="File with one name per line.")
    p.option("--ssa-year", type=_integer, default=1925, help="(default: %(default)s)")
    p.option("--services", dest="services_spec", default="fixtures", metavar="SPEC",
             help='"fixtures" or "genderize-live:URL" (default: %(default)s).')
    p.option("--fixture-file", type=_existing, metavar="PATH")
    p.option("--cache-dir", metavar="PATH")
    _format_option(p, "csv", "json")


def _plot_commands(plot: _Parser) -> None:
    # The help column stays at 16, where ``trajectories`` wraps, on every
    # Python: from 3.13 argparse widens it to fit the command's name.
    plot.formatter_class = lambda prog: _Formatter(prog, max_help_position=16)
    plot.command("trajectories", trajectories, _trajectories_options)
    plot.command("bubbles", bubbles, _bubbles_options)


def _trajectories_options(p: _Parser) -> None:
    from . import shifts as shifts_mod

    y1, y2 = shifts_mod.DEFAULT_YEAR_PAIR
    _data_options(p)
    p.option("--names", type=_name_list, help="Comma-separated names.")
    p.option("--top-shifts", type=_count,
             help="Instead of --names, use the top-N weighted shifting names.")
    p.option("--years", type=_year_list, default="1925,1950,1975,2000",
             help="Comma-separated years or a range like 1925..2000 "
                  "(default: %(default)s).")
    p.option("--y1", type=_integer, default=y1, help="(default: %(default)s)")
    p.option("--y2", type=_integer, default=y2, help="(default: %(default)s)")
    _format_option(p, "json", "csv")


def _bubbles_options(p: _Parser) -> None:
    from .model import NAMSOR_LESLIE_REFERENCE

    p.option("--corpus", dest="corpus_path", type=_existing, metavar="PATH",
             help="Labeled corpus CSV (default: the bundled Leslie fixture).")
    p.option("--reference", type=_probability,
             help=f"Constant reference p(F) line (e.g. {NAMSOR_LESLIE_REFERENCE}).")
    _format_option(p, "json", "csv")


def _parser(prog: str) -> _Parser:
    """The main parser: ``--config`` and the commands, none of whose options are added yet."""
    main = _Parser(prog=prog, usage="%(prog)s [OPTIONS] COMMAND [ARGS]...",
                   description="Temporally-aware name-gender analysis over SSA yearly "
                               "name data.")
    main.add_argument("--config", action=_ReadConfig, metavar="PATH", default=argparse.SUPPRESS,
                      help="JSON file of default option values, keyed by subcommand.")
    main.command("ingest", ingest, _ingest_options)
    main.command("query", query, _query_options)
    main.command("shift", shift, _shift_options)
    main.command("ambiguity", ambiguity, _ambiguity_options)
    main.command("audit", audit_cmd, _audit_options)
    main.command("compare", compare, _compare_options)
    main.command("plot", declare=_plot_commands,
                 doc="Emit plot-ready data series (no rendering).")
    return main


def main(args=None, prog_name=None):
    """Run one command line; always ends in ``SystemExit`` with the exit code."""
    namespace, extras = _parser(prog_name or "temponym").parse_known_args(args)
    values = vars(namespace)
    command = values.pop("command")
    if extras:
        command.error(f"unrecognized arguments: {' '.join(extras)}")
    for action in command.required_options:
        if values[action.dest] is None:
            command.error(f"Missing option '{action.option_strings[0]}'.")
    try:
        command.run(**values)
    except UsageError as exc:
        command.error(str(exc))
    except errors.TemponymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_DATA_ERROR)
    sys.exit(0)


if __name__ == "__main__":
    main()
