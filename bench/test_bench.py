"""Self-tests of the benchmark.

Run from the root of a checkout:

    python3 bench/test_bench.py
"""

from __future__ import annotations

import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import run as bench_run  # noqa: E402
from splitops import catalog, morphisms, operatorver, products, typecore  # noqa: E402
from splitops.exactalg import Matrix, Subspace  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, digest  # noqa: E402

TRACED_CLASSES = (Matrix, Subspace, typecore.TypePresentation, operatorver.Normalizer)


def _bindings() -> dict:
    """Every splitops module binding and traced class attribute."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "splitops" or name.startswith("splitops."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for cls in TRACED_CLASSES:
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def _smoke_passes(name: str, seed: int):
    """An untraced and a traced pass over the reduced op list."""
    w = Workload(name, smoke=True)
    w.set_up()
    untraced = bench_run.run_pass(w.op_list(seed, 0))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        traced = bench_run.run_pass(w.op_list(seed, 0), tracer)
    finally:
        tracer.uninstall()
    return untraced, traced, tracer


class TracerTest(unittest.TestCase):
    def test_wrappers_cover_every_binding_and_restore_originals(self):
        import splitops

        before = _bindings()
        tracer = Tracer()
        tracer.install()
        try:
            square = before[("splitops.products", "square")]
            for mod in (products, operatorver, catalog, splitops):
                self.assertIsNot(mod.square, square, mod.__name__)
                self.assertIs(mod.square.__wrapped__, square)
            push = before[("splitops.typecore", "push_relation")]
            for mod in (typecore, morphisms, catalog):
                self.assertIs(mod.push_relation.__wrapped__, push, mod.__name__)
            self.assertIsNot(vars(Subspace)["contains_vector"], before[("Subspace", "contains_vector")])
        finally:
            tracer.uninstall()
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)


class WorkloadTest(unittest.TestCase):
    def test_smoke_runs_are_correct_and_tracing_changes_no_verdict(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                untraced, traced, tracer = _smoke_passes(name, seed=3)
                self.assertEqual(untraced.failures, [])
                self.assertEqual(traced.failures, [])
                self.assertGreater(len(untraced.light_s), 10)
                self.assertEqual(traced.verdicts, untraced.verdicts)
                layers = sum(tracer.heavy[layer] for layer in LAYERS + ("bench",))
                self.assertAlmostEqual(layers, tracer.heavy["traced_s"], places=9)
                self.assertLess(abs(tracer.heavy["traced_s"] - traced.heavy_s), 1e-3)

    def test_same_seed_gives_the_same_inputs(self):
        code = (
            "import sys; sys.path[:0] = [{src!r}, {bench!r}]; "
            "from workloads import Workload, digest; "
            "w = Workload({name!r}); w.set_up(); print(digest(w.op_list(7, 0)))"
        )
        for name in WORKLOADS:
            with self.subTest(workload=name):
                w = Workload(name)
                w.set_up()
                here = digest(w.op_list(7, 0))
                out = subprocess.run(
                    [sys.executable, "-c", code.format(src=str(SRC), bench=str(BENCH), name=name)],
                    capture_output=True,
                    text=True,
                    check=True,
                    timeout=120,
                )
                self.assertEqual(out.stdout.strip(), here)
                self.assertNotEqual(digest(w.op_list(8, 0)), here)
                self.assertNotEqual(digest(w.op_list(7, 1)), here)


if __name__ == "__main__":
    unittest.main()
