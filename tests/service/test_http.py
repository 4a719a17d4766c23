"""HTTP endpoint tests over a live (loopback) ReproService."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.ml import FormatSelector
from repro.service import ReproService, ServiceApp

from .conftest import feature_payloads


@pytest.fixture(scope="module")
def service(trained_selector, corpus_table):
    app = ServiceApp(trained_selector, corpus_table)
    with ReproService(app) as svc:
        yield svc


def _get(service, path):
    with urllib.request.urlopen(service.url + path) as resp:
        return resp.status, resp.headers, resp.read()


def _get_json(service, path):
    status, _, body = _get(service, path)
    return status, json.loads(body)


def _post(service, path, body: bytes):
    req = urllib.request.Request(service.url + path, data=body)
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def _post_json(service, path, payload):
    return _post(service, path, json.dumps(payload).encode())


class TestHealthz:
    def test_reports_corpus_and_config(self, service, corpus_table):
        status, body = _get_json(service, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["rows"] == len(corpus_table)
        assert body["formats"] == ["Fast", "Bal"]
        assert body["max_batch"] == 64
        assert "micro_batch" not in body and "window_ms" not in body


class TestSelect:
    def test_features_payload(self, service, trained_selector):
        features = feature_payloads(1, seed=3)[0]
        status, body = _post_json(
            service, "/select", {"features": features}
        )
        assert status == 200
        assert body["format"] == trained_selector.select(features)
        scores = trained_selector.predict_gflops(features)
        assert body["gflops"] == pytest.approx(scores)
        assert body["predicted_gflops"] == max(scores.values())

    def test_spec_payload(self, service):
        status, body = _post_json(service, "/select", {"spec": {
            "n_rows": 4000, "avg_nnz_per_row": 12.0,
            "skew_coeff": 5000.0,
        }})
        assert status == 200
        assert body["format"] in ("Fast", "Bal")

    def test_malformed_json_is_400(self, service):
        status, body = _post(service, "/select", b"{not json")
        assert status == 400
        assert "malformed JSON" in body["error"]

    def test_missing_keys_is_400(self, service):
        status, body = _post_json(
            service, "/select", {"features": {"skew_coeff": 1.0}}
        )
        assert status == 400
        assert "missing feature keys" in body["error"]

    def test_unknown_payload_shape_is_400(self, service):
        status, body = _post_json(service, "/select", {"x": 1})
        assert status == 400
        assert "features" in body["error"]

    def test_non_numeric_feature_is_400(self, service):
        features = feature_payloads(1)[0]
        features["skew_coeff"] = "tall"
        status, body = _post_json(
            service, "/select", {"features": features}
        )
        assert status == 400
        assert "must be a number" in body["error"]

    def test_empty_body_is_400(self, service):
        status, body = _post(service, "/select", b"")
        assert status == 400
        assert "empty body" in body["error"]

    def test_unknown_spec_field_is_400(self, service):
        status, body = _post_json(
            service, "/select", {"spec": {"n_rowz": 10}}
        )
        assert status == 400
        assert "n_rowz" in body["error"]


class TestSweep:
    def test_filter_and_projection(self, service, corpus_table):
        status, body = _get_json(
            service,
            "/sweep?format=Fast&columns=matrix,gflops&limit=5",
        )
        assert status == 200
        assert body["total"] == len(corpus_table.where(format="Fast"))
        assert body["returned"] == 5
        assert sorted(body["rows"][0]) == ["gflops", "matrix"]

    def test_comma_value_is_where_in(self, service, corpus_table):
        status, body = _get_json(service, "/sweep?format=Fast,Bal")
        assert status == 200
        assert body["total"] == len(corpus_table)

    def test_numeric_filter_coerced(self, service, corpus_table):
        status, body = _get_json(service, "/sweep?skew_coeff=5000")
        assert status == 200
        assert body["total"] == len(
            corpus_table.where(skew_coeff=5000.0)
        )

    def test_offset_pagination(self, service):
        _, page1 = _get_json(service, "/sweep?limit=3")
        _, page2 = _get_json(service, "/sweep?limit=3&offset=3")
        assert [r["matrix"] for r in page1["rows"]] != \
            [r["matrix"] for r in page2["rows"]]

    def test_csv_rendering(self, service):
        status, headers, body = _get(
            service, "/sweep?fmt=csv&columns=matrix,format&limit=2"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/csv")
        lines = body.decode().splitlines()
        assert lines[0] == "matrix,format"
        assert len(lines) == 3

    def test_unknown_filter_column_is_400(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(service, "/sweep?bogus=1")
        assert err.value.code == 400
        assert "unknown filter column" in json.load(err.value)["error"]

    def test_bad_fmt_is_400(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(service, "/sweep?fmt=xml")
        assert err.value.code == 400

    def test_bad_limit_is_400(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(service, "/sweep?limit=many")
        assert err.value.code == 400

    def test_repeat_query_hits_cache(self, service):
        path = "/sweep?format=Bal&limit=4"
        _, first = _get_json(service, path)
        _, again = _get_json(service, path)
        assert first == again
        _, stats = _get_json(service, "/stats")
        assert stats["sweep_cache"]["hits"] >= 1


class TestStatsAnd404:
    def test_stats_counts_requests(self, service):
        _get_json(service, "/healthz")
        _, stats = _get_json(service, "/stats")
        health = stats["endpoints"]["healthz"]
        assert health["requests"] >= 1
        assert health["p50_ms"] >= 0
        assert health["p99_ms"] >= health["p50_ms"]

    def test_unknown_path_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(service, "/nope")
        assert err.value.code == 404
        assert "endpoints" in json.load(err.value)


class _Constant:
    """Stub regressor predicting one value everywhere."""

    def __init__(self, value):
        self.value = value

    def fit(self, X, y):
        return self

    def predict(self, X):
        return np.full(len(X), self.value)


class TestChoiceRule:
    def test_nan_score_picks_what_select_batch_picks(self, corpus_table):
        values = iter([1.0, float("nan"), 2.0])
        selector = FormatSelector(
            ["A", "B", "C"], model_factory=lambda: _Constant(next(values))
        ).fit(corpus_table)
        features = feature_payloads(1, seed=3)[0]
        want = selector.select_batch([features])[0]
        assert want == selector.select(features)
        app = ServiceApp(selector, corpus_table)
        with ReproService(app) as svc:
            status, reply = _post_json(
                svc, "/select", {"features": features}
            )
        assert status == 200
        assert reply["format"] == want
        assert reply["gflops"]["A"] == 1.0
        assert np.isnan(reply["gflops"]["B"])
