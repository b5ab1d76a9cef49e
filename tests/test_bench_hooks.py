"""The benchmark's span recorder (perfbench/spans.py) wraps package
functions by module, class and attribute name. A rename under src/ would
break its traced runs, so every name it wraps is checked here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def span_targets():
    # loaded from its file, so the check does not depend on the working directory
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_wrapped_name_resolves():
    missing = []
    for module, cls, attr, *_ in span_targets():
        owner = importlib.import_module(f"flowbalance.{module}")
        if cls is not None:
            owner = vars(owner).get(cls)
        # the recorder reads the owner's own __dict__, not inherited names
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    assert not missing, f"names the span recorder wraps are gone: {missing}"
