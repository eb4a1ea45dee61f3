"""Third-party name-gender predictions: offline fixtures or live HTTP.

The bundled fixture table carries a dated snapshot of what Gender-API,
NamSor, and Genderize.io returned for the ten 1925 benchmark names, so
divergence reports are reproducible without network access. A live
service is a genderize.io-style endpoint, rate limited and disk cached;
its results drift as vendors update their databases and are reported
but never treated as ground truth.
"""
from __future__ import annotations

import contextlib
import datetime
import json
import os
import re
import tempfile
import time
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional

from . import errors
from .dataset import Dataset, Record, read_csv
from .model import p_female

CACHE_VERSION = "v2"
# The longest Retry-After (RFC 9110 §10.2.3) that a rate-limited live call
# waits out before its one retry.
RETRY_AFTER_CAP_S = 5.0
FixtureTable = dict[str, dict[str, "ExternalPrediction"]]


class ExternalPrediction(NamedTuple):
    service_id: str
    name: str
    predicted_label: str  # F, M or U
    p_female: Optional[float]
    sample_count: Optional[int]
    source: str  # live | fixture
    fetched_at: str


def _is_probability(value) -> bool:
    """Null, or a number in [0, 1] that is not a bool; NaN fails the range test."""
    return value is None or (type(value) in (int, float) and 0 <= value <= 1)


def _is_count(value) -> bool:
    return value is None or type(value) is int  # not a bool


class ServiceConfig(Record):
    """A fixture service (with ``fixture_table``) or a live one (with ``endpoint_url``).

    ``rate_limit`` is in requests per second, for live services only; the
    fixture table takes no part in equality.
    """

    __slots__ = ("service_id", "endpoint_url", "rate_limit", "fixture_table")
    _compared = ("service_id", "endpoint_url", "rate_limit")

    def __init__(self, service_id: str, endpoint_url: Optional[str] = None,
                 rate_limit: float = 1.0, fixture_table: Optional[dict] = None):
        if (fixture_table is None) == (not endpoint_url):
            raise errors.ConfigError(
                f"{service_id}: needs exactly one of a fixture table and an endpoint URL")
        self._init(service_id=service_id, endpoint_url=endpoint_url, rate_limit=rate_limit,
                   fixture_table=fixture_table)

    @property
    def api_key(self) -> Optional[str]:
        env_name = "TEMPONYM_" + re.sub(r"\W", "_", self.service_id.upper()) + "_KEY"
        return os.environ.get(env_name)


class RateLimiter:
    """Enforces a requests-per-second ceiling; clock and sleep injectable."""

    def __init__(
        self,
        rate: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if rate <= 0:
            raise errors.ConfigError("rate must be positive")
        self.interval = 1.0 / rate
        self.clock = clock
        self.sleep = sleep
        self._next_allowed = clock()

    def wait(self) -> None:
        now = self.clock()
        if now < self._next_allowed:
            self.sleep(self._next_allowed - now)
            now = self._next_allowed
        self._next_allowed = now + self.interval


class PredictionCache:
    """Disk cache keyed by (service, name, date) so reruns are reproducible."""

    def __init__(self, directory: Path | str):
        self.root = Path(directory) / CACHE_VERSION

    def _path(self, service_id: str, name: str, date: str) -> Path:
        # The casefolded name as UTF-8 hex: a file name of 0-9a-f only, so
        # no name can reach outside the cache directory.
        key = name.casefold().encode("utf-8", "surrogatepass").hex()
        return self.root / service_id / f"{key}_{date}.json"

    def get(self, service_id: str, name: str, date: str) -> Optional[ExternalPrediction]:
        """The cached prediction; None if the entry is missing or not a valid prediction."""
        try:
            text = self._path(service_id, name, date).read_text(encoding="utf-8")
            hit = ExternalPrediction(**json.loads(text))
        except (OSError, ValueError, TypeError):  # refetched, and ``put`` overwrites it
            return None
        valid = (hit.predicted_label in ("F", "M", "U") and _is_probability(hit.p_female)
                 and _is_count(hit.sample_count))
        return hit if valid else None

    def put(self, prediction: ExternalPrediction, date: str) -> None:
        """Store ``prediction``; an entry that cannot be written is a data error."""
        path = self._path(prediction.service_id, prediction.name, date)
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=path.parent)  # one per writer
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(prediction._asdict()))
            os.replace(tmp, path)  # atomic: concurrent readers never see partial writes
            tmp = None
        except OSError as exc:
            raise errors.TemponymError(
                f"{path}: cannot be written ({exc.strerror or exc})") from None
        finally:
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.remove(tmp)


FIXTURE_COLUMNS = ("service_id", "name", "label")


def load_fixture_table(path: Optional[Path | str] = None) -> FixtureTable:
    """Fixture CSV -> {service_id: {casefolded name: prediction}}.

    Defaults to the bundled benchmark snapshot.
    """
    if path is None:
        path = Path(__file__).resolve().parent / "data" / "fixtures" / "table1_services.csv"
    table: FixtureTable = {}
    for line, row in read_csv(path, FIXTURE_COLUMNS, "fixture"):
        numbers = {}
        for column, kind in (("p_female", float), ("sample_count", int)):
            text = (row.get(column) or "").strip()
            try:
                numbers[column] = kind(text) if text else None
            except ValueError:
                raise errors.ConfigError(
                    f"{path}: line {line}: {column} {text!r} is not a number"
                ) from None
        prediction = ExternalPrediction(
            service_id=row["service_id"],
            name=row["name"],
            predicted_label=row["label"],
            **numbers,
            source="fixture",
            fetched_at="",
        )
        table.setdefault(row["service_id"], {})[row["name"].casefold()] = prediction
    return table


def fixture_configs(path: Optional[Path | str] = None) -> list[ServiceConfig]:
    """One fixture service config per service present in the fixture file."""
    table = load_fixture_table(path)
    return [
        ServiceConfig(service_id=service_id, fixture_table=table[service_id])
        for service_id in sorted(table)
    ]


def fetch_prediction(
    config: ServiceConfig,
    name: str,
    cache: Optional[PredictionCache] = None,
    limiter: Optional[RateLimiter] = None,
) -> ExternalPrediction:
    """One normalized prediction, from the fixture table or a live call.

    A live call answered 429 is retried once, after sleeping through
    ``limiter`` for its Retry-After, when that is at most
    ``RETRY_AFTER_CAP_S``; without a limiter it is not retried.
    """
    if config.fixture_table is not None:
        hit = config.fixture_table.get(name.casefold())
        if hit is None:
            raise errors.ServiceUnknownName(config.service_id, name)
        return hit

    today = datetime.date.today().isoformat()
    if cache is not None:
        cached = cache.get(config.service_id, name, today)
        if cached is not None:
            return cached

    if limiter is not None:
        limiter.wait()
    try:
        prediction = _fetch_live(config, name, today)
    except errors.RateLimited as exc:
        if limiter is None or exc.retry_after > RETRY_AFTER_CAP_S:
            raise
        limiter.sleep(exc.retry_after)
        limiter.wait()
        prediction = _fetch_live(config, name, today)
    if cache is not None:
        cache.put(prediction, today)
    return prediction


def _fetch_live(config: ServiceConfig, name: str, today: str) -> ExternalPrediction:
    import requests

    params = {"name": name}
    if config.api_key:
        params["apikey"] = config.api_key
    try:
        response = requests.get(config.endpoint_url, params=params, timeout=30)
    except requests.RequestException as exc:
        raise errors.NetworkError(str(exc)) from exc
    if response.status_code == 401:
        raise errors.AuthError(f"{config.service_id}: authentication failed")
    if response.status_code == 429:
        raise errors.RateLimited(_retry_after(response.headers.get("Retry-After")))
    if response.status_code != 200:
        raise errors.NetworkError(
            f"{config.service_id}: HTTP {response.status_code}"
        )

    try:
        body = response.json()
    except ValueError as exc:
        raise errors.NetworkError(f"{config.service_id}: response is not JSON ({exc})") from None
    if not isinstance(body, dict):
        raise errors.NetworkError(f"{config.service_id}: response is not a JSON object")
    gender = body.get("gender")
    probability = body.get("probability")
    count = body.get("count")
    if gender not in ("female", "male"):
        raise errors.ServiceUnknownName(config.service_id, name)
    if not _is_probability(probability):
        raise errors.NetworkError(
            f"{config.service_id}: probability {probability!r} is not a number in [0, 1]")
    if not _is_count(count):
        raise errors.NetworkError(f"{config.service_id}: count {count!r} is not an integer")
    p = None
    if probability is not None:
        p = float(probability) if gender == "female" else 1.0 - probability
    return ExternalPrediction(
        service_id=config.service_id,
        name=name,
        predicted_label="F" if gender == "female" else "M",
        p_female=p,
        sample_count=count,
        source="live",
        fetched_at=today,
    )


def _retry_after(header: Optional[str]) -> float:
    """Seconds to wait from a Retry-After header: delay-seconds or an HTTP-date.

    A missing or unreadable header means one second.
    """
    if header is None:
        return 1.0
    header = header.strip()
    if header.isascii() and header.isdigit():
        return float(header)
    import email.utils  # here, not at the top: every command imports this module

    try:
        when = email.utils.parsedate_to_datetime(header)
    except (TypeError, ValueError):
        return 1.0
    if when.tzinfo is None:  # "-0000": UTC with no zone information
        when = when.replace(tzinfo=datetime.timezone.utc)
    now = datetime.datetime.now(datetime.timezone.utc)
    return max((when - now).total_seconds(), 0.0)


class ComparisonRow(NamedTuple):
    name: str
    ssa_p_female: Optional[float]
    predictions: dict  # service_id -> ExternalPrediction
    cell_errors: dict  # service_id (or "ssa") -> error message

    def divergence(self, service_id: str) -> Optional[float]:
        prediction = self.predictions.get(service_id)
        if prediction is None or prediction.p_female is None or self.ssa_p_female is None:
            return None
        return abs(prediction.p_female - self.ssa_p_female)


def comparison_table(
    names: Iterable[str],
    dataset: Dataset,
    ssa_year: int,
    configs: Iterable[ServiceConfig],
    cache: Optional[PredictionCache] = None,
) -> list[ComparisonRow]:
    """One row per name: every service's prediction vs the SSA ground truth.

    Per-cell failures are recorded in the row, never fatal. Calls to each
    live service are spaced by its ``rate_limit``; fixture lookups and
    cache hits never wait.
    """
    configs = list(configs)
    if not dataset.has_year(ssa_year):  # before any fetch
        raise errors.YearNotLoaded(ssa_year)
    limiters = [RateLimiter(c.rate_limit) if c.endpoint_url else None for c in configs]
    rows = []
    for name in names:
        cell_errors: dict[str, str] = {}
        try:
            ssa = p_female(dataset, name, ssa_year).p_female
        except errors.NoData as exc:
            ssa = None
            cell_errors["ssa"] = str(exc)
        predictions = {}
        for config, limiter in zip(configs, limiters):
            try:
                predictions[config.service_id] = fetch_prediction(
                    config, name, cache=cache, limiter=limiter)
            except errors.TemponymError as exc:
                cell_errors[config.service_id] = str(exc)
        rows.append(
            ComparisonRow(
                name=name,
                ssa_p_female=ssa,
                predictions=predictions,
                cell_errors=cell_errors,
            )
        )
    return rows


def divergence_metrics(rows: Iterable[ComparisonRow]) -> dict:
    """Per-service divergence stats vs SSA plus pairwise label disagreement."""
    rows = list(rows)
    if not rows:
        raise errors.EmptyInput("no comparison rows")

    per_service: dict[str, list[float]] = {}
    service_ids: set[str] = set()
    for row in rows:
        for service_id in row.predictions:
            service_ids.add(service_id)
            divergence = row.divergence(service_id)
            if divergence is not None:
                per_service.setdefault(service_id, []).append(divergence)

    disagreement: dict[tuple[str, str], int] = {}
    ordered = sorted(service_ids)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            count = 0
            for row in rows:
                pa, pb = row.predictions.get(a), row.predictions.get(b)
                if pa and pb and pa.predicted_label != pb.predicted_label:
                    count += 1
            disagreement[(a, b)] = count

    return {
        "per_service": {
            service_id: {
                "max_divergence": max(values),
                "mean_divergence": sum(values) / len(values),
                "n": len(values),
            }
            for service_id, values in per_service.items()
        },
        "label_disagreement": disagreement,
    }
