import json
import subprocess
import sys
from pathlib import Path

from harness import CATEGORIES
from tracing import Tracer, per_layer_metrics

MANIFEST = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_what_run_py_prints():
    e2e = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    want = {"setup_s": "s", "peak_rss_mb": "MB"}
    want.update({f"{c}_s": "s" for c in CATEGORIES})
    assert e2e == want
    layer = {k: u for k, (_, u) in
             per_layer_metrics(Tracer(), 1, 0.0).items()}
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == layer
    assert [w["name"] for w in MANIFEST["workloads"]] == \
        ["exact", "montecarlo", "cli"]


def test_loading_the_workloads_imports_nothing_set_up_should_not_pay_for():
    """The timed set-up loads run.py's modules and a workload.  Loading them
    imports neither scipy (only marksurv's own import may bring it) nor
    mpmath (the references import it when they first run)."""
    bench = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import harness, tracing, workload_exact, workload_montecarlo, "
            "workload_cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'mpmath')))")
    out = subprocess.run([sys.executable, "-c", code, str(bench)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
