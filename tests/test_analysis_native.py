"""The native COP tier: bit-identity with the numpy kernels, build cache, fallback.

:class:`~repro.analysis.compiled.CompiledCop` runs its forward and backward
passes in C whenever :func:`repro.analysis.native.library` loads, and keeps
its numpy kernels as the named reference
(``signal_probabilities_batch_numpy`` / ``observabilities_batch_numpy``).
Both tiers must agree byte for byte (``tobytes`` equality, so signed zeros
count).  Without a C compiler on ``PATH`` the dispatching methods run the
numpy kernels and the differential tests below compare the reference with
itself; the cache tests need a compiler and skip without one.
"""

from __future__ import annotations

import logging
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import CompiledCop, compile_cop, native
from repro.analysis.detection import cofactor_batch
from repro.circuit import CircuitBuilder, GateType
from repro.circuits.registry import build_circuit, circuit_keys
from repro.lowered import compile_lowered

needs_compiler = pytest.mark.skipif(
    native.find_compiler() is None, reason="no C compiler on PATH"
)


def assert_tiers_identical(engine, weights, overrides=None):
    """Dispatching methods equal the numpy reference byte for byte."""
    fast = engine.signal_probabilities_batch(weights, overrides)
    ref = engine.signal_probabilities_batch_numpy(weights, overrides)
    assert fast.shape == ref.shape and fast.tobytes() == ref.tobytes()
    got = engine.observabilities_batch(ref)
    want = engine.observabilities_batch_numpy(ref)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float64
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_native_tier_loads_when_a_compiler_is_on_path():
    expected = "numpy" if native.find_compiler() is None else "native"
    assert native.tier() == expected
    circuit = build_circuit("c432")
    assert compile_cop(circuit).tier == expected


class TestBitIdentity:
    @pytest.mark.parametrize("key", circuit_keys())
    def test_registry_circuit_cofactor_batches(self, key):
        circuit = build_circuit(key)
        engine = compile_cop(circuit)
        rng = np.random.default_rng(3)
        base = rng.random(circuit.n_inputs)
        # The optimizer's PREPARE batch: every input pinned to 0 and to 1.
        weights, overrides = cofactor_batch(circuit, base)
        assert_tiers_identical(engine, weights, overrides)
        assert_tiers_identical(engine, rng.random((3, circuit.n_inputs)))

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_empty_and_single_row_batches(self, n_rows):
        circuit = build_circuit("c880")
        engine = compile_cop(circuit)
        weights = np.full((n_rows, circuit.n_inputs), 0.3)
        assert_tiers_identical(engine, weights)
        probs = engine.signal_probabilities_batch(weights)
        net_obs, pin_obs = engine.observabilities_batch(probs)
        assert probs.shape == (n_rows, circuit.n_nets)
        assert net_obs.shape == (n_rows, circuit.n_nets)
        assert pin_obs.shape == (n_rows, engine.n_pins)

    def test_gate_free_circuit(self):
        builder = CircuitBuilder("wires")
        a, b = builder.input("a"), builder.input("b")
        builder.output(a)
        builder.output(b)
        engine = compile_cop(builder.build())
        assert engine.lowered.n_gates == 0
        assert_tiers_identical(engine, np.array([[0.25, -0.0], [1.0, 0.5]]))
        assert_tiers_identical(engine, np.zeros((0, 2)))

    def test_strided_and_float32_probs(self):
        circuit = build_circuit("c499")
        engine = compile_cop(circuit)
        probs = engine.signal_probabilities_batch(
            np.random.default_rng(5).random((6, circuit.n_inputs))
        )
        strided = probs[::2]
        fortran = np.asfortranarray(probs)
        single = probs.astype(np.float32)
        assert not strided.flags.c_contiguous and not fortran.flags.c_contiguous
        cases = ((strided, probs[::2].copy()), (fortran, probs), (single, single.astype(np.float64)))
        for variant, dense in cases:
            got = engine.observabilities_batch(variant)
            want = engine.observabilities_batch_numpy(variant)
            dense_want = engine.observabilities_batch_numpy(dense)
            for a, b, c in zip(got, want, dense_want):
                assert a.tobytes() == b.tobytes() == c.tobytes()


@st.composite
def netlists(draw):
    """Netlists with duplicate pins, constants, wide gates and XOR/XNOR chains."""
    n_inputs = draw(st.integers(1, 5))
    builder = CircuitBuilder("hyp")
    signals = [builder.input(f"i{k}") for k in range(n_inputs)]
    kinds = [t for t in GateType if t not in (GateType.CONST0, GateType.CONST1)]
    for _ in range(draw(st.integers(0, 18))):
        choice = draw(st.integers(0, 9))
        if choice == 0:
            constant = draw(st.sampled_from([GateType.CONST0, GateType.CONST1]))
            signals.append(builder.gate(constant, []))
            continue
        kind = draw(st.sampled_from(kinds))
        arity = 1 if kind in (GateType.NOT, GateType.BUF) else draw(st.integers(1, 5))
        pins = [signals[draw(st.integers(0, len(signals) - 1))] for _ in range(arity)]
        if choice == 1 and kind not in (GateType.NOT, GateType.BUF):
            pins = pins[:1] * arity  # every pin reads the same net
        signals.append(builder.gate(kind, pins))
    if draw(st.booleans()):
        # An XOR/XNOR chain through the last signals.
        chain = signals[-1]
        for src in signals[-4:]:
            chain = builder.gate(draw(st.sampled_from([GateType.XOR, GateType.XNOR])), [chain, src])
        signals.append(chain)
    for k, signal in enumerate(draw(st.lists(st.sampled_from(signals), min_size=1, max_size=4))):
        builder.output(signal, f"o{k}")
    return builder.build()


probabilities = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5]), st.floats(0.0, 1.0, allow_nan=False)
)


class TestHypothesisNetlists:
    @settings(max_examples=120, deadline=None)
    @given(circuit=netlists(), data=st.data())
    def test_tiers_identical(self, circuit, data):
        engine = CompiledCop(compile_lowered(circuit))
        n_rows = data.draw(st.integers(0, 4))
        weights = np.array(
            [[data.draw(probabilities) for _ in range(circuit.n_inputs)] for _ in range(n_rows)],
            dtype=float,
        ).reshape(n_rows, circuit.n_inputs)
        overrides = [
            {int(circuit.inputs[0]): data.draw(st.sampled_from([0.0, 1.0]))}
            if data.draw(st.booleans())
            else None
            for _ in range(n_rows)
        ]
        assert_tiers_identical(engine, weights, overrides)


@pytest.fixture
def fresh_library(monkeypatch):
    """Forget the process-wide library so the next engine loads it anew."""
    monkeypatch.setattr(native, "_library", native._UNSET)


def _native_warnings(caplog):
    return [
        r for r in caplog.records if r.name == native.__name__ and r.levelno == logging.WARNING
    ]


class TestFallback:
    def test_no_compiler_runs_numpy_with_one_warning(self, monkeypatch, fresh_library, caplog):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        circuit = build_circuit("c1355")
        lowered = compile_lowered(circuit)
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            engines = [CompiledCop(lowered), CompiledCop(lowered)]
            assert native.tier() == "numpy"
        assert [engine.tier for engine in engines] == ["numpy", "numpy"]
        assert len(_native_warnings(caplog)) == 1
        weights, overrides = cofactor_batch(circuit, np.full(circuit.n_inputs, 0.4))
        reference = compile_cop(circuit)
        probs = engines[0].signal_probabilities_batch(weights, overrides)
        want = reference.signal_probabilities_batch_numpy(weights, overrides)
        assert probs.tobytes() == want.tobytes()
        got = engines[0].observabilities_batch(probs)
        for a, b in zip(got, reference.observabilities_batch_numpy(want)):
            assert a.tobytes() == b.tobytes()

    @needs_compiler
    def test_failed_build_falls_back_with_one_warning(self, monkeypatch, tmp_path, caplog):
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(native, "SOURCE", broken)
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            assert native.load_library(tmp_path / "cache") is None
        assert len(_native_warnings(caplog)) == 1
        assert [p.name for p in (tmp_path / "cache").iterdir()] == []


@needs_compiler
class TestCache:
    def _library_path(self, cache_dir):
        return cache_dir / native._library_name(native.find_compiler())

    def test_cache_dir_is_created_private(self, tmp_path):
        cache_dir = tmp_path / "a" / "cache"
        lib = native.load_library(cache_dir)
        assert lib is not None
        assert os.stat(cache_dir).st_mode & 0o777 == 0o700
        assert [p.name for p in cache_dir.iterdir()] == [self._library_path(cache_dir).name]

    @pytest.mark.parametrize(
        "problem", ["group_writable", "world_writable", "foreign_owner", "symlink"]
    )
    def test_unsafe_cache_dir_is_not_used(self, problem, tmp_path, monkeypatch):
        monkeypatch.setattr(native.tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        cache_dir = tmp_path / "cache"
        if problem == "symlink":
            (tmp_path / "target").mkdir(mode=0o700)
            cache_dir.symlink_to(tmp_path / "target")
        else:
            cache_dir.mkdir(mode=0o700)
            modes = {"group_writable": 0o770, "world_writable": 0o707}
            os.chmod(cache_dir, modes.get(problem, 0o700))
        if problem == "foreign_owner":
            uid = os.getuid()
            monkeypatch.setattr(native.os, "getuid", lambda: uid + 1)
        assert native.load_library(cache_dir) is not None
        assert list(cache_dir.iterdir()) == []
        # The private build directory is removed once the library is loaded.
        assert list((tmp_path / "tmp").iterdir()) == []

    @pytest.mark.parametrize("damage", ["truncated", "garbage"])
    def test_damaged_cached_library_is_rebuilt(self, damage, tmp_path, caplog):
        good = native.load_library(tmp_path / "good")
        assert good is not None
        good_bytes = self._library_path(tmp_path / "good").read_bytes()
        # A cache this process never loaded from (the dynamic loader would
        # hand back an already loaded library by its path).
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir(mode=0o700)
        path = self._library_path(cache_dir)
        path.write_bytes(good_bytes[:200] if damage == "truncated" else b"\0garbage" * 64)
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            lib = native.load_library(cache_dir)
        assert lib is not None and hasattr(lib, "cop_backward")
        assert _native_warnings(caplog) == []
        assert path.read_bytes() == good_bytes

    def test_library_that_never_loads_falls_back_after_one_rebuild(
        self, monkeypatch, tmp_path, caplog
    ):
        builds = []

        def corrupt_build(compiler, target):
            builds.append(target)
            target.write_bytes(b"not a shared object")

        monkeypatch.setattr(native, "_build", corrupt_build)
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            assert native.load_library(tmp_path / "cache") is None
        assert len(builds) == 2
        assert len(_native_warnings(caplog)) == 1

    def test_concurrent_builders_replace_into_place(self, monkeypatch, tmp_path):
        real_build = native._build
        both_building = threading.Barrier(2, timeout=60)

        def build_together(compiler, target):
            both_building.wait()
            real_build(compiler, target)

        monkeypatch.setattr(native, "_build", build_together)
        cache_dir = tmp_path / "cache"
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(native.load_library(cache_dir)))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert len(results) == 2 and all(lib is not None for lib in results)
        # Only the finished library is left: no temporary file survives.
        assert [p.name for p in cache_dir.iterdir()] == [self._library_path(cache_dir).name]
