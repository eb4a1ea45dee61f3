import datetime
import email.utils
import errno
import io
import os
import re
import urllib.error
import urllib.parse
import urllib.request
import urllib.response

import pytest

from temponym import dataset as ds
from temponym import errors, services


@pytest.fixture(scope="module")
def fixture_configs():
    return services.fixture_configs()


@pytest.fixture(scope="module")
def by_id(fixture_configs):
    return {config.service_id: config for config in fixture_configs}


def test_fixture_set_covers_three_services(by_id):
    assert set(by_id) == {"gender-api", "namsor", "genderize"}


def test_fixture_leslie_genderize(by_id):
    prediction = services.fetch_prediction(by_id["genderize"], "Leslie")
    assert prediction.predicted_label == "F"
    assert prediction.p_female == 0.77
    assert prediction.source == "fixture"


def test_fixture_lookup_is_case_insensitive(by_id):
    assert services.fetch_prediction(by_id["namsor"], "jean").p_female == 0.37


def test_fixture_unknown_name(by_id):
    with pytest.raises(errors.ServiceUnknownName):
        services.fetch_prediction(by_id["genderize"], "Zzyzx")


def test_fixture_csv_byte_order_mark_is_dropped(tmp_path):
    rows = b"service_id,name,label,p_female,sample_count\ngenderize,Jean,M,0.05,\n"
    (tmp_path / "plain.csv").write_bytes(rows)
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + rows)
    table = services.load_fixture_table(tmp_path / "bom.csv")
    assert table == services.load_fixture_table(tmp_path / "plain.csv")
    assert table["genderize"]["jean"].p_female == 0.05


@pytest.mark.parametrize("row", [
    b"svc,Jean,X,0.5,", b"svc,Jean,F,nan,", b"svc,Jean,F,inf,", b"svc,Jean,F,1.7,",
    # a sample_count must be 1 to 9 ASCII digits and a p_female ASCII text, though
    # int() and float() read these
    b"svc,Jean,F,0.5,-3", b"svc,Jean,F,0.5,1_000", b"svc,Jean,F,0.5,+3", b"svc,Jean,F,0.5,3.0",
    "svc,Jean,F,0.5,\u0663".encode(), b"svc,Jean,F,0.5,1234567890",
    "svc,Jean,F,\u0660.\u0665,".encode(), "svc,Jean,F,\uff10.5,".encode(),
    # a p_female must be an ASCII decimal, digits and an optional "." and digits
    b"svc,Jean,F,0.5_0,", b"svc,Jean,F,+.5e0,", b"svc,Jean,F,5e-1,", b"svc,Jean,F,.5,",
])
def test_fixture_row_that_is_not_a_prediction_names_file_and_line(tmp_path, row):
    path = tmp_path / "f.csv"
    path.write_bytes(b"service_id,name,label,p_female,sample_count\nsvc,Ann,F,0.5,\n" + row)
    with pytest.raises(errors.ConfigError, match=re.escape(f"{path}: line 3: ")):
        services.load_fixture_table(path)


def test_fixture_rows_repeating_a_casefolded_name_name_both_lines(tmp_path):
    path = tmp_path / "f.csv"
    path.write_bytes(b"service_id,name,label,p_female,sample_count\n"
                     b"svc,Jean,F,0.9,\nother,jean,M,0.1,\nsvc,Ann,F,0.5,\nsvc,jean,M,0.1,\n")
    with pytest.raises(errors.ConfigError) as caught:
        services.load_fixture_table(path)
    assert str(caught.value) == (
        f"{path}: line 5: svc 'jean' repeats the name of line 2; "
        "a service has one row per casefolded name")
    # The same name under another service, or another name, is no repeat.
    path.write_bytes(b"service_id,name,label,p_female,sample_count\n"
                     b"svc,Jean,F,0.9,\nother,jean,M,0.1,\nsvc,Ann,F,0.5,\n")
    table = services.load_fixture_table(path)
    assert table["svc"]["jean"].p_female == 0.9 and table["other"]["jean"].p_female == 0.1


def test_config_without_table_or_endpoint_is_refused():
    with pytest.raises(errors.ConfigError):
        services.ServiceConfig(service_id="genderize")
    with pytest.raises(errors.ConfigError):
        services.ServiceConfig(service_id="genderize", endpoint_url="")


def test_config_with_table_and_endpoint_is_refused(by_id):
    with pytest.raises(errors.ConfigError):
        services.ServiceConfig(service_id="genderize", endpoint_url="http://example.invalid",
                               fixture_table=by_id["genderize"].fixture_table)


def test_comparison_table_matches_ground_truth(sample_dataset, fixture_configs):
    names = ["Sydney", "Jean", "Allison", "Leslie", "Shelby",
             "Courtney", "Willie", "Haley", "Bailey", "Kelly"]
    rows = services.comparison_table(names, sample_dataset, 1925, fixture_configs)
    assert len(rows) == 10
    expected_ssa = [0.1623, 0.9745, 0.2093, 0.0839, 0.0657,
                    0.2063, 0.3565, 0.5833, 0.1667, 0.1168]
    for row, expected in zip(rows, expected_ssa):
        assert row.ssa_p_female == pytest.approx(expected, abs=0.01)
        assert not row.cell_errors


def test_comparison_empty_names(sample_dataset, fixture_configs):
    assert services.comparison_table([], sample_dataset, 1925, fixture_configs) == []


def test_comparison_flags_missing_ssa_name(sample_dataset, fixture_configs):
    (row,) = services.comparison_table(["Zzyzx"], sample_dataset, 1925, fixture_configs)
    assert row.ssa_p_female is None
    assert "ssa" in row.cell_errors


def test_jean_genderize_divergence(sample_dataset, fixture_configs):
    (row,) = services.comparison_table(["Jean"], sample_dataset, 1925, fixture_configs)
    assert row.divergence("genderize") == pytest.approx(0.9245, abs=0.0005)


def test_leslie_namsor_divergence(sample_dataset, fixture_configs):
    (row,) = services.comparison_table(["Leslie"], sample_dataset, 1925, fixture_configs)
    assert row.divergence("namsor") == pytest.approx(0.786, abs=0.005)


def test_divergence_zero_when_equal(sample_dataset):
    prediction = services.ExternalPrediction(
        "svc", "Leslie", "M", 0.0839, None, "fixture", ""
    )
    row = services.ComparisonRow("Leslie", 0.0839, {"svc": prediction}, {})
    metrics = services.divergence_metrics([row])
    assert metrics["per_service"]["svc"]["max_divergence"] == 0.0


def test_divergences_bounded(sample_dataset, fixture_configs):
    names = ["Sydney", "Jean", "Allison", "Leslie", "Shelby"]
    rows = services.comparison_table(names, sample_dataset, 1925, fixture_configs)
    for row in rows:
        for service_id in row.predictions:
            assert 0.0 <= row.divergence(service_id) <= 1.0


def test_divergence_metrics_empty():
    with pytest.raises(errors.EmptyInput):
        services.divergence_metrics([])


def test_label_disagreement_counts(sample_dataset, fixture_configs):
    rows = services.comparison_table(["Sydney"], sample_dataset, 1925, fixture_configs)
    metrics = services.divergence_metrics(rows)
    # Sydney: gender-api F, namsor F, genderize M
    assert metrics["label_disagreement"][("gender-api", "genderize")] == 1
    assert metrics["label_disagreement"][("gender-api", "namsor")] == 0


def test_rate_limiter_virtual_clock():
    clock = {"now": 0.0}
    sleeps = []

    def fake_clock():
        return clock["now"]

    def fake_sleep(duration):
        sleeps.append(duration)
        clock["now"] += duration

    limiter = services.RateLimiter(rate=2.0, clock=fake_clock, sleep=fake_sleep)
    timestamps = []
    for _ in range(5):
        limiter.wait()
        timestamps.append(clock["now"])
    # never more than 2 requests within any one virtual second
    for i in range(len(timestamps) - 2):
        assert timestamps[i + 2] - timestamps[i] >= 1.0 - 1e-9


def test_cache_round_trip_and_idempotence(tmp_path, monkeypatch):
    cache = services.PredictionCache(tmp_path)
    calls = {"n": 0}

    def fake_fetch(config, name, today):
        calls["n"] += 1
        return services.ExternalPrediction(
            config.service_id, name, "F", 0.9, 100, "live", today
        )

    monkeypatch.setattr(services, "_fetch_live", fake_fetch)
    config = services.ServiceConfig(
        service_id="genderize", endpoint_url="http://example.invalid"
    )
    first = services.fetch_prediction(config, "Leslie", cache=cache)
    second = services.fetch_prediction(config, "Leslie", cache=cache)
    assert first == second
    assert calls["n"] == 1


def test_cache_entry_nested_too_deep_is_a_miss(tmp_path):
    cache = services.PredictionCache(tmp_path)
    path = cache._path("genderize", "Leslie", "2024-01-01")
    path.parent.mkdir(parents=True)
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert cache.get("genderize", "Leslie", "2024-01-01") is None
    prediction = services.ExternalPrediction("genderize", "Leslie", "F", 0.9, 100, "live",
                                             "2024-01-01")
    cache.put(prediction, "2024-01-01")  # the refetched entry overwrites it
    assert cache.get("genderize", "Leslie", "2024-01-01") == prediction


@pytest.mark.parametrize("failure, raised", [
    (OSError(errno.ENOSPC, "No space left on device"), errors.TemponymError),
    (KeyboardInterrupt(), KeyboardInterrupt)], ids=["no-space", "interrupted"])
def test_a_cache_write_that_fails_leaves_the_old_entry_and_no_stray_file(tmp_path, monkeypatch,
                                                                         failure, raised):
    """An entry is written beside its path and renamed over it, as an index
    is: a write that fails, or is interrupted, leaves the old entry readable,
    and removes what it wrote."""
    cache = services.PredictionCache(tmp_path)
    old = services.ExternalPrediction("genderize", "Leslie", "F", 0.9, 100, "live", "2024-01-01")
    cache.put(old, "2024-01-01")
    path = cache._path("genderize", "Leslie", "2024-01-01")

    def fail(chunks):
        raise failure

    def failing_open(*args):
        fh = open(*args)
        fh.writelines = fail
        return fh

    monkeypatch.setattr(ds, "open", failing_open, raising=False)
    with pytest.raises(raised) as caught:
        cache.put(old._replace(predicted_label="M", p_female=0.1), "2024-01-01")
    monkeypatch.undo()
    if raised is errors.TemponymError:
        assert str(caught.value) == f"{path}: cannot be written (No space left on device)"
    assert cache.get("genderize", "Leslie", "2024-01-01") == old
    assert os.listdir(path.parent) == [path.name]


def test_api_key_comes_from_environment(monkeypatch):
    config = services.ServiceConfig(
        service_id="gender-api", endpoint_url="http://example.invalid"
    )
    assert config.api_key is None
    monkeypatch.setenv("TEMPONYM_GENDER_API_KEY", "sekrit")
    assert config.api_key == "sekrit"


def test_cache_files_stay_in_the_cache_directory(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    cache = services.PredictionCache(cache_dir)
    monkeypatch.setattr(services, "_fetch_live", lambda config, name, today: (
        services.ExternalPrediction(config.service_id, name, "F", 0.9, 100, "live", today)))
    config = services.ServiceConfig(
        service_id="genderize", endpoint_url="http://example.invalid"
    )
    for name in ("../../../x", "/etc/passwd", "..", "Zoë"):
        path = cache._path("genderize", name, "2024-01-01").resolve()
        assert path.is_relative_to(cache_dir.resolve())
        services.fetch_prediction(config, name, cache=cache)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache"]
    assert len(list(cache_dir.rglob("*.json"))) == 4


# --- live responses, with urllib.request.urlopen stubbed ----------------------

LIVE = services.ServiceConfig(
    service_id="genderize", endpoint_url="http://example.invalid"
)


def http_answer(status, body=b"", headers=None):
    """What ``urllib.request.urlopen`` gives for an HTTP ``status``: a
    response for 2xx, else the ``HTTPError`` it raises."""
    if 200 <= status < 300:
        return urllib.response.addinfourl(io.BytesIO(body), headers or {}, LIVE.endpoint_url,
                                          status)
    return urllib.error.HTTPError(LIVE.endpoint_url, status, "", headers or {}, io.BytesIO(body))


def fake_urlopen(answers):
    """A ``urllib.request.urlopen`` that answers each call with the next of
    ``answers``: an exception to raise, or the ``http_answer`` arguments of
    a response. Its ``sent`` lists the query of each call as a dict."""
    answers = iter(answers)

    def urlopen(url, timeout):
        urlopen.sent.append(dict(urllib.parse.parse_qsl(urllib.parse.urlsplit(url).query)))
        answer = next(answers)
        if isinstance(answer, tuple):
            answer = http_answer(*answer)
        if isinstance(answer, Exception):
            raise answer
        return answer

    urlopen.sent = []
    return urlopen


def _stub_response(monkeypatch, status, body, headers=None):
    _stub_responses(monkeypatch, (status, body, headers))


@pytest.mark.parametrize("url, message", [
    ("file:///etc/hostname", "'file:///etc/hostname' is not an http or https URL"),
    ("data:,{}", "'data:,{}' is not an http or https URL"),
    ("example.invalid", "'example.invalid' is not an http or https URL"),
    ("http://[::1", "Invalid IPv6 URL"),
    ("http://127.0.0.1:port/", "nonnumeric port"),
], ids=["file", "data", "no-scheme", "bad-ipv6", "bad-port"])
def test_live_endpoint_that_is_not_an_http_url_is_network_error(url, message):
    """Refused before any connection is made: no local file is read."""
    with pytest.raises(errors.NetworkError, match=re.escape(message)):
        services.fetch_prediction(services.ServiceConfig("genderize", url), "Leslie")


@pytest.mark.parametrize("body", [b"<html>busy</html>", b"", b'["female", 0.9]'])
def test_live_body_that_is_not_a_json_object_is_network_error(monkeypatch, body):
    _stub_response(monkeypatch, 200, body)
    with pytest.raises(errors.NetworkError, match="genderize: response is not"):
        services.fetch_prediction(LIVE, "Leslie")


def test_live_body_nested_too_deep_to_parse_is_network_error(monkeypatch):
    _stub_response(monkeypatch, 200, b"[" * 100_000)
    with pytest.raises(errors.NetworkError, match="genderize: response is not JSON"):
        services.fetch_prediction(LIVE, "Leslie")


def test_live_json_body_is_parsed(monkeypatch):
    _stub_response(monkeypatch, 200, b'{"gender": "male", "probability": 0.75, "count": 12}')
    prediction = services.fetch_prediction(LIVE, "Leslie")
    assert (prediction.predicted_label, prediction.p_female, prediction.sample_count) == (
        "M", 0.25, 12)


@pytest.mark.parametrize("probability", [b'"high"', b"true", b"[0.5]", b"1.7", b"NaN", b"-0.1"])
def test_live_probability_that_is_not_a_number_in_range_is_network_error(
    monkeypatch, probability
):
    _stub_response(monkeypatch, 200, b'{"gender": "female", "probability": %s}' % probability)
    with pytest.raises(errors.NetworkError, match="genderize: probability .* is not a number"):
        services.fetch_prediction(LIVE, "Leslie")


@pytest.mark.parametrize("count", [b'"12"', b"true", b"12.0", b"[12]", b"-1", b"-0.0"])
def test_live_count_that_is_not_an_integer_is_network_error(monkeypatch, count):
    _stub_response(monkeypatch, 200, b'{"gender": "female", "count": %s}' % count)
    with pytest.raises(errors.NetworkError, match="genderize: count .* is not an integer"):
        services.fetch_prediction(LIVE, "Leslie")


@pytest.mark.parametrize("probability, p_female", [(b"0", 1.0), (b"1", 0.0), (b"null", None)])
def test_live_probability_bounds_and_null(monkeypatch, probability, p_female):
    _stub_response(monkeypatch, 200, b'{"gender": "male", "probability": %s}' % probability)
    assert services.fetch_prediction(LIVE, "Leslie").p_female == p_female


def test_retry_after_as_http_date(monkeypatch):
    soon = datetime.datetime.now(datetime.timezone.utc) + datetime.timedelta(seconds=120)
    header = email.utils.format_datetime(soon, usegmt=True)
    _stub_response(monkeypatch, 429, b"", {"Retry-After": header})
    with pytest.raises(errors.RateLimited) as exc_info:
        services.fetch_prediction(LIVE, "Leslie")
    assert 100 < exc_info.value.retry_after <= 120


@pytest.mark.parametrize("header, seconds", [
    ("7", 7.0),
    ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0),  # in the past
    ("Wed, 21 Oct 2015 07:28:00 -0000", 0.0),
    ("soon", 1.0),
    ("Mon, 1 Jan 99999999999999999999 00:00:00 GMT", 1.0),  # a year no datetime holds
    ("²", 1.0),
    (None, 1.0),
])
def test_retry_after_forms(monkeypatch, header, seconds):
    _stub_response(monkeypatch, 429, b"", {"Retry-After": header} if header else {})
    with pytest.raises(errors.RateLimited) as exc_info:
        services.fetch_prediction(LIVE, "Leslie")
    assert exc_info.value.retry_after == seconds


def _stub_responses(monkeypatch, *responses):
    """``urlopen`` answers with each ``(status, body, headers)`` in turn; the
    query of each call is recorded in the list returned."""
    urlopen = fake_urlopen(responses)
    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    return urlopen.sent


def _virtual_limiter(sleeps):
    """A limiter of one request per second on a virtual clock; sleeps are recorded."""
    clock = {"now": 0.0}

    def sleep(duration):
        sleeps.append(duration)
        clock["now"] += duration

    return services.RateLimiter(1.0, clock=lambda: clock["now"], sleep=sleep)


TOO_MANY = (429, b"", {"Retry-After": "3"})
OK = (200, b'{"gender": "female", "probability": 0.75}', {})


def test_rate_limited_call_is_retried_once_after_retry_after(monkeypatch):
    calls = _stub_responses(monkeypatch, TOO_MANY, OK)
    sleeps = []
    prediction = services.fetch_prediction(LIVE, "Leslie", limiter=_virtual_limiter(sleeps))
    assert prediction.p_female == 0.75
    assert calls == [{"name": "Leslie"}] * 2
    assert sleeps == [3.0]  # 3 s is past the limiter's 1 s spacing: no second wait


def test_retry_after_above_the_cap_is_not_waited_for(monkeypatch):
    over = str(int(services.RETRY_AFTER_CAP_S) + 1)
    calls = _stub_responses(monkeypatch, (429, b"", {"Retry-After": over}), OK)
    sleeps = []
    with pytest.raises(errors.RateLimited) as exc_info:
        services.fetch_prediction(LIVE, "Leslie", limiter=_virtual_limiter(sleeps))
    assert exc_info.value.retry_after == float(over)
    assert calls == [{"name": "Leslie"}] and sleeps == []


def test_second_rate_limit_is_a_cell_error(monkeypatch, sample_dataset):
    calls = _stub_responses(monkeypatch, TOO_MANY, TOO_MANY, OK)
    sleeps = []
    limiter = _virtual_limiter(sleeps)
    monkeypatch.setattr(services, "RateLimiter", lambda rate: limiter)
    [row] = services.comparison_table(["Leslie"], sample_dataset, 1925, [LIVE])
    assert row.predictions == {}
    assert row.cell_errors == {"genderize": "rate limited; retry after 3.00s"}
    assert calls == [{"name": "Leslie"}] * 2 and sleeps == [3.0]


# --- rate limiting in comparison_table ----------------------------------------

def test_comparison_table_rate_limits_each_live_service(
    tmp_path, monkeypatch, sample_dataset, fixture_configs
):
    clock = {"now": 0.0}
    sleeps, calls, rates = [], [], []

    def fake_sleep(duration):
        sleeps.append(duration)
        clock["now"] += duration

    def limiter(rate):
        rates.append(rate)
        return real_limiter(rate, clock=lambda: clock["now"], sleep=fake_sleep)

    def fake_fetch(config, name, today):
        calls.append((config.service_id, name, clock["now"]))
        return services.ExternalPrediction(config.service_id, name, "F", 0.9, 1, "live", today)

    real_limiter = services.RateLimiter
    monkeypatch.setattr(services, "RateLimiter", limiter)
    monkeypatch.setattr(services, "_fetch_live", fake_fetch)
    live = [services.ServiceConfig(service_id=service_id, endpoint_url="http://example.invalid")
            for service_id in ("first", "second")]
    names = ["Sydney", "Jean", "Leslie", "Shelby"]
    cache = services.PredictionCache(tmp_path)
    rows = services.comparison_table(names, sample_dataset, 1925, fixture_configs + live, cache)
    assert rates == [services.LIVE_RATE] * 2  # one limiter per live service, none for fixtures
    assert all(not row.cell_errors for row in rows)
    assert len(calls) == 2 * len(names)
    spacing = 1 / services.LIVE_RATE
    for service_id in ("first", "second"):
        times = [t for service, _, t in calls if service == service_id]
        assert len(times) == len(names)
        assert all(b - a >= spacing for a, b in zip(times, times[1:]))
    assert sleeps and sum(sleeps) <= (len(names) - 1) * spacing

    sleeps.clear()
    calls.clear()
    services.comparison_table(names, sample_dataset, 1925, fixture_configs + live, cache)
    assert calls == [] and sleeps == []  # cache hits and fixture lookups never wait
