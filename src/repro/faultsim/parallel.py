"""Fault-parallel x pattern-parallel fault simulation with fault dropping.

This is the workhorse behind Tables 2 and 4 and Figure 2 of the paper: given a
stream of (weighted) random patterns, determine which stuck-at faults are
detected and after how many patterns.  The simulator runs on the compiled
structure-of-arrays engine (:mod:`repro.simulation.compiled`), which itself
consumes the shared lowered-circuit IR (:mod:`repro.lowered`) — creating a
simulator never re-walks the netlist; it picks up the cached lowering (level
kernels, fan-out CSR, fan-out cones) every other engine over the circuit
uses:

* the fault-free circuit is simulated bit-parallel (64 patterns per word),
  by the engine's C level loop or its numpy level kernels,
* still-undetected faults are sent to the engine in *groups*
  (:meth:`~repro.simulation.compiled.CompiledCircuit.fault_batch_detection`).
  The native tier propagates each fault event-driven from its site and
  stops where the faulty words equal the good ones; the numpy reference
  gives every fault of a group a block of pattern words in one wide value
  matrix and re-evaluates the union of the group's fan-out cones.  Both
  give the same detection words, so everything below is tier-blind,
* a fault is detected by every pattern for which some primary output differs
  from the fault-free value, and detected faults are dropped from subsequent
  batches.

Faults are indices into one :class:`~repro.faults.model.FaultTable`, the one
fault encoding, from the active set to :attr:`FaultSimResult.first_detection`.

Fault dropping takes effect before the propagation kernel pays for a fault,
in the PPSFP spirit of Waicukauski et al. ("Fault Simulation for Structured
VLSI", 1985) — simulate a fault only while its machine can still differ from
the good one:

* **batch ramp** — with dropping on, a stream's batches start at one
  64-pattern word and double up to ``batch_size`` (the ramp carries across
  chunk boundaries), so easy faults drop after 64–512 patterns instead of
  riding a full first batch;
* **site-activity prefilter** — before the active set is grouped, every fault
  whose effect provably dies at its site is taken out of the batch: it is
  not excited by any valid pattern, or its site is not a primary output and
  every gate reading the site computes its fault-free value anyway.  Such a
  fault has an all-zero detection row, so it simply stays active.  The check
  runs off a static per-fault table (:class:`_SiteActivity`, read off the
  lowering's fan-out CSR) as a fixed number of vectorized calls per batch;
* **one column budget** — the surviving faults are packed into dense groups
  of ``max(1, _GROUP_COLUMNS // n_words)`` faults, so a group's value matrix
  is at most :data:`_GROUP_COLUMNS` words wide whatever the batch width.

:class:`FaultSimStats` counts the work exactly: fault-batches simulated,
pruned by the prefilter, and fault-words sent to the kernel.

The per-fault interpreted baseline this replaced is preserved as
:class:`repro.faultsim.legacy.LegacyParallelFaultSimulator` and is
differential-tested against this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..faults.collapse import collapsed_fault_list
from ..faults.model import Fault, FaultTable
from ..lowered import LoweredCircuit, ragged_positions
from ..simulation.compiled import (
    _OP_UFUNC,
    _ZERO,
    compile_circuit,
    first_detection_indices,
    popcount_words,
)
from ..simulation.logicsim import WORD_BITS, pack_patterns

__all__ = ["ParallelFaultSimulator", "FaultSimResult", "FaultSimStats"]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Column budget (in 64-pattern words) of one fault-parallel value matrix:
#: a group packs ``max(1, _GROUP_COLUMNS // n_words)`` faults, i.e. 64
#: faults on a 2048-pattern batch and 2048 faults on a one-word batch.
_GROUP_COLUMNS = 2048


@dataclass(frozen=True)
class FaultSimStats:
    """Observability counters of one :meth:`ParallelFaultSimulator.run_stream`.

    These make the PPSFP fault-dropping machinery *measurable*: dropping
    gains show up as shrinking :attr:`active_sizes` and a falling
    :attr:`faults_simulated` total rather than being inferred from wall time.

    Attributes:
        n_batches: pattern batches simulated against at least one live fault.
        faults_simulated: total fault-batch simulations, i.e. the sum of the
            active-set size over all batches.  The batch ramp adds batches,
            so this rises with it even as the kernel work falls.
        faults_dropped: faults physically removed from the active set by
            inter-batch compaction.
        active_sizes: active-set size at the start of each simulated batch.
        fault_words: propagation-kernel work, the sum over batches of the
            faults sent to the kernel times the batch's 64-pattern words.
        faults_pruned: fault-batches the site-activity prefilter proved
            undetectable, so they never reached the kernel.
    """

    n_batches: int
    faults_simulated: int
    faults_dropped: int
    active_sizes: Tuple[int, ...]
    fault_words: int = 0
    faults_pruned: int = 0

    def to_dict(self) -> Dict:
        """JSON-serializable artifact dict (job-spec API)."""
        from ..api.serialize import tagged_dict

        return tagged_dict(
            "fault_sim_stats",
            {
                "n_batches": int(self.n_batches),
                "faults_simulated": int(self.faults_simulated),
                "faults_dropped": int(self.faults_dropped),
                "active_sizes": [int(size) for size in self.active_sizes],
                "fault_words": int(self.fault_words),
                "faults_pruned": int(self.faults_pruned),
            },
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSimStats":
        """Rebuild stats from :meth:`to_dict` output (validated).

        Blobs written while a kernel backend or a partition size was
        selectable still carry a ``backend`` or ``partition_size`` field; it
        is read and dropped, so stored reports load.
        """
        from ..api.serialize import untag

        payload = untag(
            data,
            "fault_sim_stats",
            required=(
                "n_batches",
                "faults_simulated",
                "faults_dropped",
                "active_sizes",
            ),
            optional=("partition_size", "fault_words", "faults_pruned", "backend"),
        )
        return cls(
            n_batches=int(payload["n_batches"]),
            faults_simulated=int(payload["faults_simulated"]),
            faults_dropped=int(payload["faults_dropped"]),
            active_sizes=tuple(int(size) for size in payload["active_sizes"]),
            fault_words=int(payload["fault_words"] or 0),
            faults_pruned=int(payload["faults_pruned"] or 0),
        )


@dataclass(eq=False)
class FaultSimResult:
    """Result of a fault simulation run.

    Attributes:
        faults: the faults that were simulated (collapsed list).
        first_detection: ``int64`` per fault, the (0-based) index of the
            first pattern that detects it, ``-1`` if none does.
        n_patterns: total number of patterns applied.
        stats: optional run counters (:class:`FaultSimStats`).  Excluded from
            equality — two runs are "the same result" when they agree on the
            detection outcome, whatever batching produced it.
    """

    faults: FaultTable
    first_detection: np.ndarray
    n_patterns: int
    stats: Optional[FaultSimStats] = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FaultSimResult)
            and (self.faults, self.n_patterns) == (other.faults, other.n_patterns)
            and np.array_equal(self.first_detection, other.first_detection)
        )

    @property
    def undetected(self) -> FaultTable:
        return self.faults.take(self.first_detection < 0)

    @property
    def fault_coverage(self) -> float:
        """Fraction of simulated faults detected by the full pattern set."""
        return self.coverage_at(self.n_patterns)

    def coverage_at(self, n_patterns: int) -> float:
        """Fault coverage achieved by the first ``n_patterns`` patterns."""
        first = self.first_detection
        return float(np.mean((first >= 0) & (first < n_patterns))) if first.size else 1.0

    def to_dict(self) -> Dict:
        """JSON-serializable artifact dict (job-spec API).

        Faults are encoded once as ``[net, stuck_value, gate]`` triples and
        the detected faults as ``[fault_index, pattern_index]`` pairs into
        that list, in fault order, so the artifact stays compact while the
        decoded result is exactly equal to the original.
        """
        from ..api.serialize import tagged_dict

        detected = np.flatnonzero(self.first_detection >= 0)
        payload = {
            "faults": self.faults.to_lists(),
            "first_detection": np.column_stack((detected, self.first_detection[detected])).tolist(),
            "n_patterns": int(self.n_patterns),
        }
        if self.stats is not None:
            payload["stats"] = self.stats.to_dict()
        return tagged_dict("fault_sim_result", payload)

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSimResult":
        """Rebuild a result from :meth:`to_dict` output (validated)."""
        from ..api.serialize import untag

        payload = untag(
            data,
            "fault_sim_result",
            required=("faults", "first_detection", "n_patterns"),
            optional=("stats",),
        )
        faults = FaultTable.from_lists(payload["faults"])
        pairs = np.array(payload["first_detection"], dtype=np.int64).reshape(-1, 2)
        if len(pairs) != len(payload["first_detection"]) or pairs.min(initial=0) < 0:
            raise ValueError("first_detection must hold [fault, pattern] index pairs")
        first_detection = np.full(len(faults), -1, dtype=np.int64)
        first_detection[pairs[:, 0]] = pairs[:, 1]
        stats = payload["stats"]
        return cls(
            faults,
            first_detection,
            int(payload["n_patterns"]),
            stats=None if stats is None else FaultSimStats.from_dict(stats),
        )


class _SiteActivity:
    """Static per-fault table of the exact site-activity prefilter.

    A fault's effect can only leave its site through the gates reading the
    faulty net: every reader of a stem fault's net, or the one gate of a
    branch fault.  Each such (fault, reader gate) pair is an *entry*.
    Evaluating the reader with every pin that reads the net forced to the
    stuck value, and comparing with its fault-free output, tells whether the
    effect survives the first gate.  A fault none of whose entries differ on
    a valid pattern, and which is not a stem fault on a primary output
    excited by some valid pattern, has an all-zero detection row: the faulty
    machine differs from the good one at its site alone.

    Entries are sorted by the reader's base op (ties in fault order), so one
    ``reduceat`` per op evaluates any subset of them; a batch costs a fixed
    number of vectorized calls whatever the number of faults.
    """

    def __init__(self, lowered: LoweredCircuit, faults: FaultTable):
        n_faults = len(faults)
        net, gate = faults.net, faults.gate
        stem = gate < 0
        is_output = np.zeros(lowered.n_nets, dtype=bool)
        is_output[lowered.outputs] = True
        self.n_faults = n_faults
        self.net = net
        self.stuck = np.where(faults.stuck, _ALL_ONES, _ZERO)
        # Stem faults on a primary output are detected wherever excited.
        self.observed = stem & is_output[net]

        # Reader gates of every net (a gate reading a net on several pins is
        # one reader): the lowering's fan-out CSR, built once per lowering.
        reader_start, reader_gate = lowered.fanout()

        stem_faults = np.flatnonzero(stem)
        counts = reader_start[net[stem_faults] + 1] - reader_start[net[stem_faults]]
        stem_faults, counts = stem_faults[counts > 0], counts[counts > 0]
        branch_faults = np.flatnonzero(~stem)
        entry_fault = np.concatenate([np.repeat(stem_faults, counts), branch_faults])
        entry_gate = np.concatenate(
            [
                reader_gate[ragged_positions(reader_start[net[stem_faults]], counts)],
                gate[branch_faults],
            ]
        )
        order = np.lexsort((entry_fault, lowered.gate_op[entry_gate]))
        entry_fault, entry_gate = entry_fault[order], entry_gate[order]
        self.entry_fault = entry_fault
        self.entry_op = lowered.gate_op[entry_gate]
        self.entry_out = lowered.gate_output[entry_gate]
        self.entry_invert = np.where(lowered.gate_invert[entry_gate], _ALL_ONES, _ZERO)
        self.entry_len = lowered.gate_fanin_len[entry_gate]

        # Every entry's operand rows, entry-major; a pin reading the faulty
        # net is forced to the fault's stuck word.
        pin_entry = np.repeat(np.arange(entry_gate.size), self.entry_len)
        self.pin_fault = entry_fault[pin_entry]
        self.pin_src = lowered.gate_fanin_flat[
            ragged_positions(lowered.gate_fanin_start[entry_gate], self.entry_len)
        ]
        self.pin_forced = self.pin_src == net[self.pin_fault]

    def live(self, part: np.ndarray, good: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Mask over the fault indices ``part``: effect may leave the site.

        ``False`` proves the fault undetected by every valid pattern of the
        batch whose fault-free net values are ``good``.
        """
        chosen = np.zeros(self.n_faults, dtype=bool)
        chosen[part] = True
        live = np.zeros(self.n_faults, dtype=bool)
        entries = np.flatnonzero(chosen[self.entry_fault])
        if entries.size:
            pins = chosen[self.pin_fault]
            ops = good[self.pin_src[pins]]
            forced = self.pin_forced[pins]
            ops[forced] = self.stuck[self.pin_fault[pins][forced]][:, None]
            lengths = self.entry_len[entries]
            starts = np.cumsum(lengths) - lengths
            entry_op = self.entry_op[entries]
            acc = np.empty((entries.size, good.shape[1]), dtype=np.uint64)
            for op, ufunc in _OP_UFUNC.items():
                lo, hi = np.searchsorted(entry_op, (op, op + 1))
                if lo < hi:
                    base, end = starts[lo], starts[hi - 1] + lengths[hi - 1]
                    acc[lo:hi] = ufunc.reduceat(ops[base:end], starts[lo:hi] - base, axis=0)
            acc ^= good[self.entry_out[entries]]
            acc ^= self.entry_invert[entries][:, None]
            acc &= mask
            live[self.entry_fault[entries[acc.any(axis=1)]]] = True
        observed = part[self.observed[part]]
        if observed.size:
            excited = (good[self.net[observed]] ^ self.stuck[observed][:, None]) & mask
            live[observed[excited.any(axis=1)]] = True
        return live[part]


class ParallelFaultSimulator:
    """Fault-parallel x pattern-parallel fault simulator (compiled engine).

    Args:
        circuit: circuit under test.
        faults: fault list; defaults to the collapsed stuck-at list.
    """

    def __init__(self, circuit: Circuit, faults: Optional[Sequence[Fault]] = None):
        self.circuit = circuit
        self.faults = FaultTable.of(faults if faults is not None else collapsed_fault_list(circuit))
        # One compile per circuit structure process-wide: the engine (and
        # the lowering underneath it) comes from the content-addressed cache.
        self._engine = compile_circuit(circuit)
        self.lowered = self._engine.lowered
        self._activity = _SiteActivity(self.lowered, self.faults)

    @staticmethod
    def _group_size(n_words: int) -> int:
        return max(1, _GROUP_COLUMNS // n_words)

    def _site_level_order(self) -> np.ndarray:
        """Fault indices stably sorted by fault-site logic level.

        Faults with nearby sites have heavily overlapping fan-out cones, so
        grouping them minimizes the union cone each group re-evaluates.  The
        processing order does not affect results (detections are per fault and
        per pattern), only locality.
        """
        levels = self._engine.net_level[self.faults.net]
        return np.argsort(levels, kind="stable").astype(np.int64)

    def _detect(
        self, indices: np.ndarray, good: np.ndarray, n_words: int, mask: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Detection words of the faults ``indices`` against one batch.

        Returns ``(survivors, detection)``: the faults of ``indices`` (in
        order) the site-activity prefilter could not rule out, and their
        detection rows from the propagation kernel, in dense groups of
        :meth:`_group_size` faults.  Every other fault of ``indices`` is
        undetected by the batch.
        """
        survivors = indices[self._activity.live(indices, good, mask)]
        group_size = self._group_size(n_words)
        rows = [
            self._engine.fault_batch_detection(
                self.faults.take(survivors[g_start : g_start + group_size]),
                good,
                n_words,
                valid_mask=mask,
            )
            for g_start in range(0, int(survivors.size), group_size)
        ]
        if not rows:
            return survivors, np.zeros((0, n_words), dtype=np.uint64)
        return survivors, np.concatenate(rows)

    # ------------------------------------------------------------------ #
    # Public entry points
    # ------------------------------------------------------------------ #
    def run(
        self,
        patterns: np.ndarray,
        drop_detected: bool = True,
        batch_size: int = 2048,
    ) -> FaultSimResult:
        """Fault-simulate a pattern matrix.

        Args:
            patterns: boolean array ``(n_patterns, n_inputs)``.
            drop_detected: drop faults from later batches once detected
                (the normal mode; disable only for diagnostics).
            batch_size: patterns per bit-parallel batch (the widest batch of
                the ramp, see :meth:`run_stream`).

        Returns:
            a :class:`FaultSimResult` with first-detection indices.
        """
        return self.run_stream(
            [np.asarray(patterns, dtype=bool)],
            drop_detected=drop_detected,
            batch_size=batch_size,
        )

    def run_stream(
        self,
        chunks: Iterable[np.ndarray],
        drop_detected: bool = True,
        batch_size: int = 2048,
        target_coverage: Optional[float] = None,
    ) -> FaultSimResult:
        """Fault-simulate a stream of pattern chunks.

        Detection results are identical to materializing the stream into one
        matrix and calling :meth:`run` — chunk and batch boundaries never
        affect per-pattern detection — but only one chunk is held in memory
        at a time, and the stream can stop early once a coverage target is
        reached.

        With ``drop_detected`` the batches ramp: the first one is one
        64-pattern word wide and each next one doubles, up to
        ``batch_size``, carrying across chunk boundaries (a chunk's last
        batch ends with the chunk).  Faults the site-activity prefilter
        rules out for a batch skip the propagation kernel for it.

        Args:
            chunks: iterable of boolean pattern matrices applied back to
                back (e.g. ``WeightedPatternGenerator.generate_stream``).
            drop_detected: drop faults from later batches once detected.
            batch_size: patterns per bit-parallel batch.
            target_coverage: optional fault-coverage fraction; when reached
                (checked after each chunk) the remaining chunks are not
                consumed and :attr:`FaultSimResult.n_patterns` reflects only
                the patterns actually applied.  ``None`` consumes the whole
                stream, matching :meth:`run` exactly.

        Returns:
            a :class:`FaultSimResult` with first-detection indices, the
            number of patterns consumed from the stream and the run's
            :class:`FaultSimStats` counters.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size!r}")
        engine = self._engine
        n_faults = len(self.faults)
        # PPSFP active set: fault indices, site-level sorted, physically
        # compacted between batches — dropped faults vanish from the arrays
        # instead of being masked, so later batches never touch them.
        active = self._site_level_order()
        first_det = np.full(n_faults, -1, dtype=np.int64)
        applied = 0
        n_batches = 0
        faults_simulated = 0
        faults_dropped = 0
        faults_pruned = 0
        fault_words = 0
        active_sizes: List[int] = []
        width = min(WORD_BITS, batch_size) if drop_detected else batch_size

        for chunk in chunks:
            chunk = np.asarray(chunk, dtype=bool)
            chunk_len = chunk.shape[0]
            start = 0
            while start < chunk_len and active.size:
                batch = chunk[start : start + width]
                batch_len = batch.shape[0]
                n_words = (batch_len + WORD_BITS - 1) // WORD_BITS
                good = engine.simulate_words(pack_patterns(batch))
                mask = _valid_mask(batch_len, n_words)
                n_batches += 1
                active_sizes.append(int(active.size))
                faults_simulated += int(active.size)
                survivors, detection = self._detect(active, good, n_words, mask)
                faults_pruned += int(active.size - survivors.size)
                fault_words += int(survivors.size) * n_words
                firsts = first_detection_indices(detection)
                hit = firsts >= 0
                if hit.any():
                    # Without dropping a fault stays active after detection;
                    # never let a later batch overwrite the first index.
                    hit_idx = survivors[hit]
                    fresh = first_det[hit_idx] < 0
                    first_det[hit_idx[fresh]] = applied + start + firsts[hit][fresh]
                if drop_detected:
                    before = int(active.size)
                    active = active[first_det[active] < 0]
                    faults_dropped += before - int(active.size)
                start += batch_len
                width = min(2 * width, batch_size)
            applied += chunk_len
            if (
                target_coverage is not None
                and n_faults
                and int((first_det >= 0).sum()) / n_faults >= target_coverage
            ):
                break
        stats = FaultSimStats(
            n_batches=n_batches,
            faults_simulated=faults_simulated,
            faults_dropped=faults_dropped,
            active_sizes=tuple(active_sizes),
            fault_words=fault_words,
            faults_pruned=faults_pruned,
        )
        return FaultSimResult(self.faults, first_det, applied, stats=stats)

    def detection_counts(
        self, patterns: np.ndarray, batch_size: int = 2048
    ) -> np.ndarray:
        """Number of patterns detecting each fault (no fault dropping).

        Dividing by the number of patterns yields the Monte-Carlo estimate of
        the detection probabilities ``p_f(X)`` used as a validation estimator
        for the PROTEST-style analysis.
        """
        patterns = np.asarray(patterns, dtype=bool)
        n_patterns = patterns.shape[0]
        counts = np.zeros(len(self.faults), dtype=np.int64)
        order = self._site_level_order()
        for start in range(0, n_patterns, batch_size):
            batch = patterns[start : start + batch_size]
            batch_len = batch.shape[0]
            n_words = (batch_len + WORD_BITS - 1) // WORD_BITS
            good = self._engine.simulate_words(pack_patterns(batch))
            mask = _valid_mask(batch_len, n_words)
            survivors, detection = self._detect(order, good, n_words, mask)
            counts[survivors] += popcount_words(detection)
        return counts


def _valid_mask(n_patterns: int, n_words: int) -> np.ndarray:
    mask = np.full(n_words, _ALL_ONES, dtype=np.uint64)
    remainder = n_patterns % WORD_BITS
    if remainder:
        mask[-1] = (np.uint64(1) << np.uint64(remainder)) - np.uint64(1)
    return mask
