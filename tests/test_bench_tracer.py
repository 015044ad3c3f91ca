"""The traced benchmark run (`bench/run.py --trace 1`) wraps library
functions by name.  Every name it lists must still resolve where the
tracer looks for it, or the traced run breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"gogmagog.{layer}")
        for name in names:
            if "." in name:
                cls_name, method = name.split(".")
                found = method in vars(getattr(module, cls_name, object))
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append(f"{layer}.{name}")
    assert missing == []
