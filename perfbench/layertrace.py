"""In-memory call tracing of the mptspec modules, installed from outside.

``Tracer.install`` replaces each traced public function with a wrapper in
the module that defines it and in every mptspec module that imported it by
name, so calls between modules (cli -> spectral, surrogate -> tensors, ...)
are caught too.  The library's code is not changed.

Every traced call is one span: name, parent span, op, start and end.  Spans
stay in memory in flat arrays and are written out when the run ends.  A
span's self time is its duration minus the time covered by its child spans.
Counters that explain the work (repeated assemblies, solves per frequency,
Gauss-Newton iterations, bytes written, refusals) are taken at the same
boundaries.  Outside ``begin_op``/``end_op`` the wrappers pass calls through
untraced, so the correctness checks never show up in the trace.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (defining module, qualified name) of every traced function
TRACED = (
    ("spectral", "assemble"),
    ("spectral", "mode_tensor"),
    ("spectral", "commutator_Z"),
    ("spectral", "assemble_dlog"),
    ("spectral", "limit_tensors"),
    ("tensors", "SymTensor3.from_matrix"),
    ("tensors", "eigen_sym3"),
    ("tensors", "rotate_tensor"),
    ("tensors", "offdiag_bound_report"),
    ("surrogate", "generate"),
    ("surrogate", "eigen_model"),
    ("surrogate", "direct_theta1"),
    ("surrogate", "verify_identities"),
    ("modelio", "save_model"),
    ("modelio", "load_model"),
    ("modelio", "write_sweep_csv"),
    ("modelio", "read_sweep_csv"),
    ("modelio", "write_json"),
    ("sphere", "sphere_spectral_model"),
    ("sphere", "sphere_poles"),
    ("fitting", "fit_report"),
    ("fitting", "fit_dominant"),
    ("transient", "TransientKernel.impulse"),
    ("transient", "convolve_excitation"),
    ("transient", "Waveform.segments_until"),
    ("poleresidue", "from_model"),
    ("poleresidue", "select_truncation"),
    ("poleresidue", "evaluate"),
    ("poleresidue", "contour_residue"),
)

# per-layer metrics, in output order: (name, unit, better)
LAYER_METRICS = (
    ("spectral.assemble.calls", "count", "lower"),
    ("spectral.assemble.self_ms", "ms", "lower"),
    ("spectral.assemble.repeat_frac", "ratio", "lower"),
    ("spectral.mode_tensor.calls_per_mode", "ratio", "lower"),
    ("spectral.mode_tensor.self_ms", "ms", "lower"),
    ("spectral.commutator_Z.self_ms", "ms", "lower"),
    ("spectral.assemble_dlog.self_ms", "ms", "lower"),
    ("spectral.limit_tensors.self_ms", "ms", "lower"),
    ("tensors.SymTensor3.from_matrix.calls", "count", "lower"),
    ("tensors.SymTensor3.from_matrix.self_ms", "ms", "lower"),
    ("tensors.eigen_sym3.calls", "count", "lower"),
    ("tensors.eigen_sym3.self_ms", "ms", "lower"),
    ("tensors.rotate_tensor.self_ms", "ms", "lower"),
    ("tensors.offdiag_bound_report.self_ms", "ms", "lower"),
    ("surrogate.generate.self_ms", "ms", "lower"),
    ("surrogate.eigen_model.self_ms", "ms", "lower"),
    ("surrogate.direct_theta1.calls_per_nu", "ratio", "lower"),
    ("surrogate.direct_theta1.self_ms", "ms", "lower"),
    ("surrogate.verify_identities.self_ms", "ms", "lower"),
    ("cli.sphere.total_ms", "ms", "lower"),
    ("cli.sweep.total_ms", "ms", "lower"),
    ("cli.fit.total_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("modelio.save_model.self_ms", "ms", "lower"),
    ("modelio.load_model.self_ms", "ms", "lower"),
    ("modelio.write_sweep_csv.self_ms", "ms", "lower"),
    ("modelio.read_sweep_csv.self_ms", "ms", "lower"),
    ("modelio.write_json.self_ms", "ms", "lower"),
    ("modelio.bytes_written", "bytes", "lower"),
    ("sphere.sphere_spectral_model.self_ms", "ms", "lower"),
    ("sphere.sphere_poles.calls", "count", "lower"),
    ("sphere.sphere_poles.self_ms", "ms", "lower"),
    ("fitting.fit_report.self_ms", "ms", "lower"),
    ("fitting.fit_dominant.calls", "count", "lower"),
    ("fitting.fit_dominant.self_ms", "ms", "lower"),
    ("fitting.gn_iterations", "count", "lower"),
    ("fitting.unconverged", "count", "lower"),
    ("fitting.rates_agree_frac", "ratio", "higher"),
    ("transient.TransientKernel.impulse.self_ms", "ms", "lower"),
    ("transient.convolve_excitation.self_ms", "ms", "lower"),
    ("transient.Waveform.segments_until.calls", "count", "lower"),
    ("transient.Waveform.segments_until.self_ms", "ms", "lower"),
    ("poleresidue.from_model.self_ms", "ms", "lower"),
    ("poleresidue.select_truncation.calls", "count", "lower"),
    ("poleresidue.evaluate.calls", "count", "lower"),
    ("poleresidue.evaluate.self_ms", "ms", "lower"),
    ("poleresidue.contour_residue.self_ms", "ms", "lower"),
    ("poleresidue.refusals", "count", "lower"),
)

# metrics that count work; two traced runs with one seed must agree exactly
EXACT_SUFFIXES = (".calls", "calls_per_mode", "calls_per_nu", "repeat_frac",
                  "gn_iterations", "bytes_written", "unconverged",
                  "rates_agree_frac", "refusals")


def is_exact(name: str) -> bool:
    return name.endswith(EXACT_SUFFIXES)


def matches(name: str, pattern: str) -> bool:
    """A pattern ending in "." names a whole module; otherwise one span."""
    return name.startswith(pattern) if pattern.endswith(".") else name == pattern


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        # one entry per span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []  # [span id, child ns]
        self.enabled = False
        self.ops = 0
        self.counts: Counter = Counter()
        # models touched in the current op, kept alive so ids stay unique
        self._op_models: dict[int, object] = {}
        self._op_pairs: set = set()
        self._op_mode_models: set = set()

    # ---- spans

    def _slot(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return idx

    def _traced_call(self, idx: int, fn, args, kwargs):
        sid = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.ops)
        self.span_end.append(0)
        frame = [sid, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.span_end[sid] = end
            dur = end - start
            self.calls[idx] += 1
            self.total_ns[idx] += dur
            self.self_ns[idx] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self
        idx = self._slot(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            slot = idx if idx is not None else tracer._slot(name(args, kwargs))
            result = tracer._traced_call(slot, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def begin_op(self):
        self._op_models.clear()
        self._op_pairs.clear()
        self._op_mode_models.clear()
        self.enabled = True

    def end_op(self):
        self.enabled = False
        self.ops += 1

    # ---- counters taken at the span boundaries

    def _on_assemble(self, args, kwargs):
        model = args[0] if args else kwargs["model"]
        nu = args[1] if len(args) > 1 else kwargs["nu"]
        self._op_models.setdefault(id(model), model)
        key = (id(model), float(nu))
        if key in self._op_pairs:
            self.counts["assemble_repeats"] += 1
        self._op_pairs.add(key)

    def _on_mode_tensor(self, args, kwargs):
        model = args[0] if args else kwargs["model"]
        if id(model) not in self._op_mode_models:
            self._op_mode_models.add(id(model))
            self._op_models.setdefault(id(model), model)
            self.counts["model_modes"] += len(model.modes)

    def _on_verify(self, args, kwargs):
        problem = args[0] if args else kwargs["problem"]
        grid = args[1] if len(args) > 1 else kwargs.get("nu_grid")
        nus = problem.nu_grid.values if grid is None else np.asarray(getattr(grid, "values", grid))
        self.counts["verify_nus"] += int((np.asarray(nus) > 0.0).sum())

    def _after_fit_dominant(self, args, kwargs, result):
        self.counts["gn_iterations"] += result.iterations
        self.counts["unconverged"] += not result.converged

    def _after_fit_report(self, args, kwargs, rows):
        for row in rows:
            if not row.skipped:
                self.counts["fit_rows"] += 1
                self.counts["rates_agree"] += bool(row.rates_agree_15pct)

    def _refusal_counting(self, fn, refusal):
        tracer = self

        def counted(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except refusal:
                if tracer.enabled:
                    tracer.counts["refusals"] += 1
                raise

        return counted

    def _byte_counting(self, fn):
        tracer = self

        def counted(path, text):
            if tracer.enabled:
                tracer.counts["bytes_written"] += len(text.encode())
            return fn(path, text)

        return counted

    # ---- installation

    def install(self):
        """Wrap every traced function and rebind each of its aliases."""
        import mptspec  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "mptspec" or n.startswith("mptspec.")]
        refusal = sys.modules["mptspec.errors"].PoleProximityError
        hooks = {
            "spectral.assemble": (self._on_assemble, None),
            "spectral.mode_tensor": (self._on_mode_tensor, None),
            "surrogate.verify_identities": (self._on_verify, None),
            "fitting.fit_dominant": (None, self._after_fit_dominant),
            "fitting.fit_report": (None, self._after_fit_report),
        }

        def rebind(original, replacement):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)

        for modname, qual in TRACED:
            owner = sys.modules["mptspec." + modname]
            name = f"{modname}.{qual}"
            before, after = hooks.get(name, (None, None))
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(name, raw.__func__, before, after)))
                else:
                    setattr(cls, attr, self._wrap(name, raw, before, after))
                continue
            original = getattr(owner, qual)
            fn = original
            if modname == "poleresidue" and qual in ("evaluate", "contour_residue"):
                fn = self._refusal_counting(original, refusal)
            rebind(original, self._wrap(name, fn, before, after))

        modelio = sys.modules["mptspec.modelio"]
        rebind(modelio.write_text, self._byte_counting(modelio.write_text))

        # one span per CLI subcommand, named after it
        cli = sys.modules["mptspec.cli"]
        rebind(cli.main, self._wrap(lambda args, kwargs: "cli." + args[0][0], cli.main))

    # ---- results

    def _stat(self, name: str, field: list) -> int:
        idx = self._index.get(name)
        return 0 if idx is None else field[idx]

    def span_counts(self) -> dict[str, int]:
        return {n: self.calls[i] for i, n in enumerate(self.names)}

    def metrics(self) -> dict[str, float]:
        ops = max(self.ops, 1)

        def per_op(x):
            return x / ops

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name, _, _ in LAYER_METRICS:
            base, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = per_op(self._stat(base, self.calls))
            elif stat == "self_ms":
                out[name] = per_op(self._stat(base, self.self_ns)) / 1e6
            elif stat == "total_ms":
                out[name] = per_op(self._stat(base, self.total_ns)) / 1e6
        cli_self = sum(self.self_ns[i] for i, n in enumerate(self.names) if n.startswith("cli."))
        c = self.counts
        out.update({
            "cli.self_ms": per_op(cli_self) / 1e6,
            "spectral.assemble.repeat_frac": ratio(
                c["assemble_repeats"], self._stat("spectral.assemble", self.calls)),
            "spectral.mode_tensor.calls_per_mode": ratio(
                self._stat("spectral.mode_tensor", self.calls), c["model_modes"]),
            "surrogate.direct_theta1.calls_per_nu": ratio(
                self._stat("surrogate.direct_theta1", self.calls), c["verify_nus"]),
            "modelio.bytes_written": per_op(c["bytes_written"]),
            "fitting.gn_iterations": per_op(c["gn_iterations"]),
            "fitting.unconverged": per_op(c["unconverged"]),
            "fitting.rates_agree_frac": ratio(c["rates_agree"], c["fit_rows"]),
            "poleresidue.refusals": per_op(c["refusals"]),
        })
        return {name: out[name] for name, _, _ in LAYER_METRICS}

    def bypass_violations(self, stresses, bypasses) -> list[str]:
        """Stressed spans that never ran and bypassed spans that did."""
        counts = self.span_counts()
        bad = [f"{s}: no spans" for s in stresses if counts.get(s, 0) == 0]
        for name, n in counts.items():
            if n and any(matches(name, p) for p in bypasses):
                bad.append(f"{name}: {n} spans in a bypassed layer")
        return bad

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )
