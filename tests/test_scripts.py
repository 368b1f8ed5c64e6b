"""The command-line contract of scripts/run_benchmark.py, the seed-0 quality
run that scripts/bench.py starts with `--seeds 0 --out FILE`. The benchmark
itself is stubbed: criteria 8 and 9 run it."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    """Import scripts/<name>.py as a module without writing bytecode there
    and without leaving its directories on sys.path."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


@pytest.fixture(scope="module")
def quality_keys():
    return _load("bench").QUALITY


def test_run_benchmark_runs_each_seed_in_order_and_writes_one_result_each(
        tmp_path, monkeypatch, quality_keys):
    script = _load("run_benchmark")
    calls = []

    def stub(seed):
        calls.append(seed)
        return {"seed": seed, **{k: float(seed) for k in quality_keys}}

    monkeypatch.setattr(script, "run_benchmark", stub)
    out = tmp_path / "benchmark.json"
    assert script.main(["--seeds", "3", "4", "--out", str(out)]) == 0
    assert calls == [3, 4]
    results = json.loads(out.read_text())
    assert [r["seed"] for r in results] == [3, 4]
    for r in results:
        assert set(quality_keys) <= r.keys()
        assert all(r[k] == float(r["seed"]) for k in quality_keys)


@pytest.mark.parametrize("flag", ["--traces", "--windows"])
def test_run_benchmark_has_no_protocol_flags(flag, monkeypatch, capsys):
    script = _load("run_benchmark")
    monkeypatch.setattr(script, "run_benchmark", lambda seed: pytest.fail("the benchmark ran"))
    with pytest.raises(SystemExit) as ei:
        script.main(["--seeds", "0", flag, "5"])
    assert ei.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
