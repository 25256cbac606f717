"""bench/layers.py: a reduced pass runs, and every committed BENCH_*.json
holds the machine, the versions, the commits and the paired layer rows."""

import glob
import json
import os
import runpy
import time

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
LAYERS = os.path.join(ROOT, "bench", "layers.py")


def check_rows(rows):
    by_layer = {}
    for row in rows:
        by_layer.setdefault(row["layer"], []).append(row)
    assert set(by_layer) == {"rhs", "solve", "crossover"}
    assert {row["form"] for row in by_layer["rhs"]} == {"float", "array"}
    assert {row["lanes"] for row in by_layer["rhs"]} == {1, 5}
    for row in by_layer["rhs"]:
        assert row["calls"] > 0 and row["us"] > 0
    for row in by_layer["solve"]:  # nfev = 2 + 12 attempts, before any dense output
        attempts, rest = divmod(row["nfev"] - 2, 12)
        assert rest == 0 and attempts >= row["steps"] > 0 and row["ms"] > 0
    for row in by_layer["crossover"]:
        assert row["ratio"] == row["float_ms"] / row["array_ms"]
    return by_layer


def test_a_reduced_layer_pass_runs_in_under_2_s():
    measure = runpy.run_path(LAYERS)["measure"]
    start = time.perf_counter()
    rows = measure(quick=True)
    assert time.perf_counter() - start < 2.0
    check_rows(rows)


def test_every_bench_file_has_its_fields_and_parent_rows():
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert paths
    for path in paths:
        with open(path) as fh:
            report = json.load(fh)
        for field in ("machine", "python", "numpy", "scipy", "commit", "parent_commit"):
            assert report[field], (path, field)
        by_layer = check_rows(report["rows"])
        for row in by_layer["rhs"]:
            assert "parent_us" in row
            assert (row["parent_us"] is None) == (row["form"] == "float")
        for row in by_layer["solve"]:
            assert row["parent_ms"] > 0
