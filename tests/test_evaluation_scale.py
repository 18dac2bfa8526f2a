"""The scale benchmark runner: smoke, validation, and CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.evaluation.scale import run_scale_bench
from repro.exceptions import ValidationError


def _small(**overrides):
    cfg = {
        "n_peers": 64,
        "spheres_per_peer": 2,
        "n_queries": 4,
        "baseline_peers": 16,
        "seed": 0,
    }
    cfg.update(overrides)
    return run_scale_bench(**cfg)


class TestRunner:
    def test_serial_smoke(self):
        report = _small()
        assert report["benchmark"] == "scale"
        assert report["spheres_published"] == 64 * 2 * report["levels_used"]
        assert report["peers_per_s"] > 0
        assert report["queries_per_s"] > 0
        assert report["bulk_speedup"] > 0
        assert report["resources"]["peak_rss_bytes"] > 0
        assert report["fabric"]["messages"] > 0

    def test_grid_recorded_per_level(self):
        report = _small()
        assert len(report["grid"]) == report["levels_used"]
        for counts in report["grid"].values():
            n_cells = 1
            for c in counts:
                n_cells *= c
            assert n_cells >= 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_peers": 0},
            {"spheres_per_peer": 0},
            {"n_queries": 0},
            {"baseline_peers": 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            _small(**kwargs)


class TestCli:
    def test_scale_bench_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = cli_main([
            "scale-bench", "--peers", "64", "--queries", "4",
            "--baseline-peers", "16", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n_peers"] == 64
        assert "scale-bench" in capsys.readouterr().out

    def test_scale_bench_json_flag(self, capsys):
        code = cli_main([
            "scale-bench", "--peers", "32", "--queries", "2",
            "--baseline-peers", "8", "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["benchmark"] == "scale"
