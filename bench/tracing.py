"""Per-layer tracing of splitops from outside the library.

``Tracer.install`` replaces each traced public function of splitops by a
wrapper at every module binding it is imported under (``products.square``
is also ``operatorver.square``, ``catalog.square`` and ``splitops.square``),
and traced methods on their classes.  ``Tracer.uninstall`` puts every
original back.  Nothing inside ``src/`` is changed.

A wrapper either records a span (name, duration, and the time of the spans
it caused) or only counts.  A span's self time is its duration minus the
time of its child spans, so within one op the self times of all spans plus
the op's own remainder add up to the op's duration.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from splitops import catalog, dsl, duality, exactalg, morphisms, operatorver, products, typecore

LAYERS = ("exactalg", "typecore", "products", "duality", "morphisms", "operatorver", "catalog", "dsl")

# The benchmark's own span around each op; its self time is what no
# traced layer accounts for.
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.enabled = False
        self.counts: dict[str, float] = defaultdict(float)
        self.heavy: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, child seconds]
        self._in_heavy = False
        self._patches: list[tuple[object, str, object]] = []
        self._seen_catalog: set[int] = set()

    # -- spans -------------------------------------------------------------

    def _close(self, name: str, start: float) -> float:
        duration = self.clock() - start
        _, child = self._stack.pop()
        self_time = duration - child
        self.counts[name + ".calls"] += 1
        self.counts[name + ".self_s"] += self_time
        if self._in_heavy:
            self.heavy[name.split(".")[0]] += self_time
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def run_op(self, call, heavy: bool):
        """Run one op inside the benchmark's span and return its verdict."""
        self._in_heavy = heavy
        start = self.clock()
        self._stack.append([OP_SPAN, 0.0])
        try:
            verdict = call()
        finally:
            duration = self._close(OP_SPAN, start)
            if heavy:
                self.heavy["traced_s"] += duration
            self._in_heavy = False
        return verdict

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _span(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before else None
            start = tracer.clock()
            tracer._stack.append([name, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, start)
            if after:
                after(args, kwargs, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                count(args, kwargs)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Replace ``original`` at every splitops module binding."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "splitops" or mod_name.startswith("splitops.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _rebind_attr(self, cls, attr: str, replacement) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        c = self.counts

        # exactalg
        def rref_before(args, kwargs):
            m = args[0]
            c["exactalg.rref.cells"] += m.nrows * m.ncols
            c["exactalg.rref.nonzeros"] += sum(1 for row in m.rows for x in row if x)

        self._rebind(exactalg.rref, self._span("exactalg.rref", exactalg.rref, before=rref_before))

        def contains_before(args, kwargs):
            space = args[0]
            c["exactalg.contains_vector.cells"] += len(space.basis) * space.ambient

        self._rebind_attr(
            exactalg.Subspace,
            "contains_vector",
            self._span(
                "exactalg.contains_vector",
                exactalg.Subspace.contains_vector,
                before=contains_before,
            ),
        )
        matrix_init = exactalg.Matrix.__init__

        def matrix_new(self_, *args, **kwargs):
            matrix_init(self_, *args, **kwargs)
            if self.enabled:
                c["exactalg.matrix_new.calls"] += 1
                c["exactalg.matrix_new.entries"] += self_.nrows * self_.ncols

        self._rebind_attr(exactalg.Matrix, "__init__", matrix_new)

        # typecore
        self._rebind(typecore.validate, self._span("typecore.validate", typecore.validate))
        self._rebind(
            typecore.push_relation, self._span("typecore.push_relation", typecore.push_relation)
        )
        getter = typecore.TypePresentation.relation_subspace.fget

        def relation_subspace(self_):
            if self.enabled:
                c["typecore.relation_subspace.accesses"] += 1
                if getattr(self_, "_subspace", None) is None:
                    c["typecore.relation_subspace.misses"] += 1
            return getter(self_)

        self._rebind_attr(typecore.TypePresentation, "relation_subspace", property(relation_subspace))

        # products
        def square_after(args, kwargs, result, state):
            c["products.square.out_coords"] += 2 * result.dim * result.dim

        self._rebind(products.square, self._span("products.square", products.square, after=square_after))
        self._rebind(products.maltese, self._span("products.maltese", products.maltese))

        # duality
        self._rebind(duality.dual, self._span("duality.dual", duality.dual))

        def find_star_after(args, kwargs, result, state):
            bound = args[1] if len(args) > 1 else kwargs.get("bound", 1)
            c["duality.find_star.candidates"] += (2 * bound + 1) ** args[0].dim - 1
            c["duality.find_star.hits"] += len(result)

        self._rebind(
            duality.find_star, self._span("duality.find_star", duality.find_star, after=find_star_after)
        )

        # morphisms
        def autos_after(args, kwargs, result, state):
            c["morphisms.monomial_automorphisms.found"] += len(result)

        self._rebind(
            morphisms.monomial_automorphisms,
            self._span(
                "morphisms.monomial_automorphisms",
                morphisms.monomial_automorphisms,
                after=autos_after,
            ),
        )

        def iso_after(args, kwargs, result, state):
            c["morphisms.check_isomorphism.true"] += bool(result)
            if self.inside("morphisms.monomial_automorphisms"):
                c["morphisms.monomial_automorphisms.iso_checks"] += 1

        self._rebind(
            morphisms.check_isomorphism,
            self._span("morphisms.check_isomorphism", morphisms.check_isomorphism, after=iso_after),
        )
        # every (permutation, signs) candidate of the sweep meets the prefilter
        prefilter = getattr(morphisms, "_relations_preserved", None)
        if prefilter is not None:

            def visit(args, kwargs):
                c["morphisms.monomial_automorphisms.visited"] += 1

            self._rebind(prefilter, self._counter(prefilter, visit))

        # operatorver
        normalizer = operatorver.Normalizer

        def normalize_before(args, kwargs):
            return args[0].steps

        def normalize_after(args, kwargs, result, steps):
            c["operatorver.normalize.steps"] += args[0].steps - steps

        self._rebind_attr(
            normalizer,
            "normalize",
            self._span(
                "operatorver.normalize",
                normalizer.normalize,
                before=normalize_before,
                after=normalize_after,
            ),
        )

        def normalize_term(args, kwargs):
            c["operatorver.normalize_term.calls"] += 1
            if args[1] in getattr(args[0], "_memo", {}):
                c["operatorver.normalize_term.memo_hits"] += 1

        self._rebind_attr(
            normalizer, "normalize_term", self._counter(normalizer.normalize_term, normalize_term)
        )
        self._rebind(
            operatorver.relation_instance,
            self._span("operatorver.relation_instance", operatorver.relation_instance),
        )

        def verdicts(args, kwargs, result, state):
            c["operatorver.verdicts"] += len(result.verdicts if hasattr(result, "verdicts") else result)

        for entry in (
            operatorver.verify_operator_theorem,
            operatorver.verify_commuting_family,
            operatorver.verify_operator_lemmas,
        ):
            self._rebind(entry, self._span("operatorver.verify", entry, after=verdicts))

        # catalog: a miss is the first time an object is handed out
        def get_after(args, kwargs, result, state):
            if id(result) not in self._seen_catalog:
                self._seen_catalog.add(id(result))
                c["catalog.get.miss"] += 1

        self._rebind(catalog.get, self._span("catalog.get", catalog.get, after=get_after))

        # dsl
        self._rebind(dsl.parse_type, self._span("dsl.parse", dsl.parse_type))
        self._rebind(dsl.parse_type_json, self._span("dsl.parse", dsl.parse_type_json))
        self._rebind(dsl.serialize, self._span("dsl.serialize", dsl.serialize))

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit)."""
        c = self.counts

        def ratio(num: str, den: str) -> float:
            return c[num] / c[den] if c[den] else 0.0

        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            out[name] = (float(value), unit)

        for span in (
            "exactalg.rref",
            "exactalg.contains_vector",
            "typecore.validate",
            "typecore.push_relation",
            "products.square",
            "products.maltese",
            "duality.dual",
            "morphisms.monomial_automorphisms",
            "morphisms.check_isomorphism",
            "operatorver.normalize",
            "operatorver.relation_instance",
            "catalog.get",
            "dsl.parse",
            "dsl.serialize",
        ):
            put(span + ".calls", c[span + ".calls"], "count")
            put(span + ".self_s", c[span + ".self_s"], "s")
        put("exactalg.rref.cells", c["exactalg.rref.cells"], "count")
        put("exactalg.rref.density", ratio("exactalg.rref.nonzeros", "exactalg.rref.cells"), "ratio")
        put("exactalg.contains_vector.cells", c["exactalg.contains_vector.cells"], "count")
        put("exactalg.matrix_new.calls", c["exactalg.matrix_new.calls"], "count")
        put("exactalg.matrix_new.entries", c["exactalg.matrix_new.entries"], "count")
        put(
            "typecore.relation_subspace.miss_ratio",
            ratio("typecore.relation_subspace.misses", "typecore.relation_subspace.accesses"),
            "ratio",
        )
        put("products.square.out_coords", c["products.square.out_coords"], "count")
        put("duality.find_star.candidates", c["duality.find_star.candidates"], "count")
        put("duality.find_star.hit_ratio", ratio("duality.find_star.hits", "duality.find_star.candidates"), "ratio")
        autos = "morphisms.monomial_automorphisms"
        for field in ("visited", "iso_checks", "found"):
            put(f"{autos}.{field}", c[f"{autos}.{field}"], "count")
        put(f"{autos}.pass_ratio", ratio(f"{autos}.found", f"{autos}.iso_checks"), "ratio")
        put(
            "morphisms.check_isomorphism.true_ratio",
            ratio("morphisms.check_isomorphism.true", "morphisms.check_isomorphism.calls"),
            "ratio",
        )
        put("operatorver.normalize.steps", c["operatorver.normalize.steps"], "count")
        put(
            "operatorver.normalize_term.memo_hit_ratio",
            ratio("operatorver.normalize_term.memo_hits", "operatorver.normalize_term.calls"),
            "ratio",
        )
        put("operatorver.verify.self_s", c["operatorver.verify.self_s"], "s")
        put("operatorver.verdicts", c["operatorver.verdicts"], "count")
        put("catalog.get.miss", c["catalog.get.miss"], "count")
        for layer in LAYERS + ("bench",):
            put(f"heavy.{layer}.self_s", self.heavy[layer], "s")
        put("heavy.traced_s", self.heavy["traced_s"], "s")
        return out
