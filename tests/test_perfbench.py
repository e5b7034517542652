"""Guards the names the benchmark's tracer patches in the package."""

import types
from pathlib import Path

from mswavenet import autodiff

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_ops_exist_in_autodiff():
    """perfbench/tracing.py wraps each op in _OPS (and counts the FLOP of
    each in _GEMM_FLOP) by name; one missing from autodiff breaks
    ``--trace 1``. The module is compiled from its source text, so no
    bytecode cache is written beside it."""
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing.__dict__)
    names = set(tracing._OPS) | set(tracing._GEMM_FLOP)
    missing = sorted(n for n in names if not callable(getattr(autodiff, n, None)))
    assert not missing, f"perfbench/tracing.py traces ops autodiff no longer has: {missing}"
