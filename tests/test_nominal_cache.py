"""One nominal per structure: builds of one structure share its
nominal state.

A :class:`~repro.analysis.problem.VariationalProblem`'s solver adopts
the nominal state (DC and AC reference factors, sparsity patterns,
nominal system) the process solved last for the same structure
content, frequency and flags
(:data:`~repro.solver.avsolver.NOMINAL_SLOT`).  Each test below fails
when one of the sharing's safety properties goes: a build that shares
must store the bytes a build that solves its own nominal stores, any
difference in what the solver reads must miss, and sharing must not
leak one problem's solver into another's.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

import repro.solver.avsolver as avsolver
import repro.solver.newton as newton
from repro.errors import GeometryError
from repro.experiments import table1_spec, table2_spec
from repro.geometry import Box, Structure
from repro.materials import UniformDoping, doped_silicon, tungsten
from repro.materials.material import Insulator
from repro.mesh import CartesianGrid
from repro.mesh.refine import uniform_axis
from repro.obs.trace import Tracer, activate
from repro.serving import SurrogateStore, ensure_surrogate
from repro.solver import AVSolver
from repro.solver.ac import ACSystem
from repro.solver.avsolver import NOMINAL_SLOT
from repro.solver.linear import _FACTORIZATIONS, _PATTERNS
from repro.units import um

#: The fast serving TSV mesh of the campaign sweep.
TSV_PARAMS = {"max_step_um": 2.5, "margin_um": 2.5, "rdf_nodes": 8}
_TSV_CAPS = None


def _tsv_spec(sigma_m: float):
    """A level-1 (15-solve) build of the table2 sweep member
    ``sigma_m``: every group capped at one variable."""
    global _TSV_CAPS
    if _TSV_CAPS is None:
        probe = table2_spec(**TSV_PARAMS).build_problem()
        _TSV_CAPS = {group.name: 1 for group in probe.groups}
    return table2_spec(sigma_m=sigma_m,
                       reduction={"caps": dict(_TSV_CAPS), "level": 1},
                       **TSV_PARAMS)


def _plug_spec(sigma_m: float):
    """A 5-solve metal-plug doping build."""
    return table1_spec("doping", reduction={"caps": {"doping": 1},
                                            "energy": 0.9},
                       max_step_um=2.0, rdf_nodes=6, sigma_m=sigma_m)


def _work() -> np.ndarray:
    """``[factorizations, AC patterns, DC patterns, nominal solves,
    Newton DC steps]`` this process has done."""
    return np.array([_FACTORIZATIONS.value(),
                     _PATTERNS.value(system="ac"),
                     _PATTERNS.value(system="dc"),
                     avsolver._NOMINAL_SOLVES.value(),
                     newton._STEPS.value(kind="newton")])


def _payload(spec, root, **kwargs) -> bytes:
    """The npz bytes a fresh store holds after building ``spec``."""
    store = SurrogateStore(root)
    report = ensure_surrogate(spec, store, warm_start=False, **kwargs)
    assert report.built
    return (store.root / f"{report.cache_key}.npz").read_bytes()


def _cold_payloads(specs, root) -> list:
    """Each spec's npz bytes, built with the slot emptied first."""
    payloads = []
    for index, spec in enumerate(specs):
        NOMINAL_SLOT.clear()
        payloads.append(_payload(spec, root / f"cold{index}"))
    NOMINAL_SLOT.clear()
    return payloads


def _layered(x_end=um(4.0), eps_r=3.9, trim_top=False, doping=None):
    """Two tungsten plates on a p-type silicon slab in oxide: the
    smallest structure with a DC equilibrium and an AC drive.  Each
    argument changes one thing a solver reads: a grid axis, a material
    parameter, a contact's node set, the doping profile."""
    grid = CartesianGrid(np.array([0.0, um(1.0), um(2.0), um(3.0), x_end]),
                         uniform_axis(0.0, um(4.0), 4),
                         uniform_axis(0.0, um(6.0), 6))
    structure = Structure(grid,
                          background=Insulator(name="oxide", eps_r=eps_r))
    slab = Box((um(1.0), um(1.0), um(1.0)), (um(3.0), um(3.0), um(5.0)))
    lower = Box((um(1.0), um(1.0), 0.0), (um(3.0), um(3.0), um(1.0)))
    upper = Box((um(1.0), um(1.0), um(5.0)), (um(3.0), um(3.0), um(6.0)))
    structure.add_box(doped_silicon(-1.0e21), slab)
    structure.add_box(tungsten(), lower)
    structure.add_box(tungsten(), upper)
    structure.add_contact_on_box_face("bottom", lower, "z-")
    if trim_top:
        face = upper.face_box("z+", thickness=1e-9 * um(6.0))
        ids = grid.nodes_in_box(face.lo, face.hi)
        structure.add_contact("top", ids[:-1])
    else:
        structure.add_contact_on_box_face("top", upper, "z+")
    if doping is not None:
        structure.set_doping(doping)
    return structure


def _published(structure, frequency=1e9, **flags) -> AVSolver:
    """A sharing solver whose nominal is complete (and so offered)."""
    solver = AVSolver.for_structure(structure, frequency, **flags)
    solver.ac_reference(["top", "bottom"])
    return solver


class TestSharedNominal:
    def test_sweep_members_share_one_state(self, tmp_path):
        specs = [_tsv_spec(0.1), _tsv_spec(0.101)]
        tracer = Tracer()
        payloads, work = [], []
        with activate(tracer):
            for index, spec in enumerate(specs):
                before = _work()
                payloads.append(_payload(spec, tmp_path / f"shared{index}"))
                work.append((_work() - before).tolist())
        # The first build solves the nominal: 6 Newton LUs, the DC and
        # the AC reference, one pattern each; the second adds nothing.
        assert work[0] == [8, 1, 1, 1, 6]
        assert work[1] == [0, 0, 0, 0, 0]
        shared = [span.attrs["shared"] for span in tracer.spans
                  if span.name == "nominal_solve"]
        assert shared == [False, True]
        assert payloads == _cold_payloads(specs, tmp_path)

    def test_problems_keep_their_own_solvers(self):
        first = _tsv_spec(0.1).build_problem()
        second = _tsv_spec(0.101).build_problem()
        first.nominal_solution()
        assert first.solver is not second.solver
        assert not first.solver.nominal_shared
        assert second.solver.nominal_shared
        assert second.solver.nominal_state is first.solver.nominal_state

    def test_plain_solvers_never_share(self):
        structure = _layered()
        _published(structure)
        plain = AVSolver(_layered(), 1e9)
        assert not plain.nominal_shared
        before = _work()
        plain.ac_reference(["top", "bottom"])
        assert (_work() - before)[3] == 1

    def test_twin_structure_shares(self):
        state = _published(_layered()).nominal_state
        twin = AVSolver.for_structure(_layered(), 1e9)
        assert twin.nominal_shared and twin.nominal_state is state


class TestKeyMisses:
    @pytest.mark.parametrize("variant", [
        {"x_end": um(4.5)},
        {"eps_r": 4.2},
        {"trim_top": True},
        {"doping": UniformDoping(-2.0e21)},
    ], ids=["grid-axis", "material", "contact-nodes", "doping"])
    def test_structure_difference_misses(self, variant):
        _published(_layered())
        other = AVSolver.for_structure(_layered(**variant), 1e9)
        assert not other.nominal_shared
        before = _work()
        other.ac_reference(["top", "bottom"])
        assert (_work() - before)[3] == 1

    @pytest.mark.parametrize("settings", [
        {"frequency": 2e9},
        {"recombination": False},
        {"full_wave": True},
    ], ids=["frequency", "recombination", "full-wave"])
    def test_solver_setting_difference_misses(self, settings):
        _published(_layered())
        flags = {"frequency": 1e9, **settings}
        frequency = flags.pop("frequency")
        other = AVSolver.for_structure(_layered(), frequency, **flags)
        assert not other.nominal_shared

    @pytest.mark.parametrize("mutate", [
        lambda s: s.add_box(doped_silicon(-1.0e21),
                            Box((0.0, 0.0, 0.0), (um(1.0), um(1.0), um(1.0)))),
        lambda s: s.add_contact("side", [0, 1]),
        lambda s: s.set_doping(UniformDoping(-2.0e21)),
    ], ids=["add_box", "add_contact", "set_doping"])
    def test_mutation_after_caching_never_yields_the_stale_state(
            self, mutate):
        structure = _layered()
        before = structure.fingerprint()
        _published(structure)
        mutate(structure)
        assert structure.fingerprint() != before
        # Neither the mutated structure nor a twin of its old content
        # gets the state now solved on a structure that changed.
        for candidate in (structure, _layered()):
            solver = AVSolver.for_structure(candidate, 1e9)
            assert not solver.nominal_shared

    def test_failed_add_box_drops_the_fingerprint(self):
        structure = _layered()
        before = structure.fingerprint()
        with pytest.raises(GeometryError):
            structure.add_box(Insulator(name="nitride", eps_r=7.5),
                              Box((um(10.0), um(10.0), um(10.0)),
                                  (um(11.0), um(11.0), um(11.0))))
        # The material table grew all the same.
        assert structure.fingerprint() != before


class TestIsolation:
    def test_patching_one_solver_leaves_another_unchanged(self):
        # The TestChordEquilibrium pattern: a patch on one problem's
        # solver must not reach a problem of the same structure.
        chord = _tsv_spec(0.1).build_problem()
        chord.solver.dc_reference()
        plain = _tsv_spec(0.1).build_problem()
        plain.solver.dc_reference = lambda: None
        assert plain.solver.nominal_state is chord.solver.nominal_state
        xi = {group.name: np.zeros(group.size) for group in chord.groups}
        before = _work()
        chord.solve_sample(xi)
        assert (_work() - before)[4] == 0  # chord steps only
        before = _work()
        plain.solve_sample(xi)
        assert (_work() - before)[4] > 0  # full Newton

    def test_concurrent_builds_store_sequential_bytes(self, tmp_path,
                                                      monkeypatch):
        specs = [_tsv_spec(0.101), _tsv_spec(0.102)]
        expected = _cold_payloads(specs, tmp_path)
        # Publish a nominal with no AC reference yet: both threads then
        # need it at once, and the state's lock lets one build it.
        solver = _tsv_spec(0.1).build_problem().solver
        solver.dc_reference()
        nominal = solver.nominal_state.system
        restrict = ACSystem._restricted_system

        def slow(self, excitations):
            # Widens the window in which an unlocked second thread
            # would restrict and factor the nominal again.
            if self is nominal and frozenset(excitations) \
                    not in self._factor_cache:
                time.sleep(0.2)
            return restrict(self, excitations)

        monkeypatch.setattr(ACSystem, "_restricted_system", slow)
        payloads = [None, None]
        errors = []

        def build(index):
            try:
                payloads[index] = _payload(specs[index],
                                           tmp_path / f"thread{index}")
            except Exception as exc:  # reported below
                errors.append(exc)

        before = _work()
        threads = [threading.Thread(target=build, args=(index,))
                   for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        # One AC reference LU between them, no nominal solve.
        assert (_work() - before)[[0, 3]].tolist() == [1, 0]
        assert payloads == expected

    def test_threads_add_each_contact_set_once(self):
        # More threads than cores, switching as often as the
        # interpreter allows: every contact set is factored once and
        # every thread gets that one factor.
        AVSolver.for_structure(_layered(), 1e9).dc_reference()
        sets = [["top", "bottom"], ["top"], ["bottom"]]
        workers = 4
        barrier = threading.Barrier(workers)
        factors = [[] for _ in range(workers)]

        def work(index):
            solver = AVSolver.for_structure(_layered(), 1e9)
            barrier.wait(timeout=30)
            for contacts in sets:
                factors[index].append(solver.ac_reference(contacts))

        before = _work()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(index,))
                       for index in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(row) == len(sets) for row in factors)
        assert (_work() - before)[[0, 3]].tolist() == [len(sets), 0]
        for row in factors[1:]:
            assert all(mine is first for mine, first in zip(row, factors[0]))

    def test_pool_build_with_a_populated_slot_is_bitwise_serial(
            self, tmp_path):
        spec = _plug_spec(0.102)
        expected = _cold_payloads([spec], tmp_path)
        _payload(_plug_spec(0.1), tmp_path / "first")
        assert _plug_spec(0.1).build_problem().solver.nominal_shared
        serial = _payload(spec, tmp_path / "serial")
        pooled = _payload(spec, tmp_path / "pool", workers=2)
        assert pooled == serial == expected[0]

    def test_fork_while_locked_does_not_deadlock(self):
        solver = AVSolver.for_structure(_layered(), 1e9)
        solver.dc_reference()  # offered, no AC reference yet
        state = solver.nominal_state
        done = multiprocessing.get_context("fork").Value("i", 0)

        def child():
            shared = AVSolver.for_structure(_layered(), 1e9)
            shared.ac_reference(["top", "bottom"])
            done.value = int(shared.nominal_shared)

        with state.lock, NOMINAL_SLOT._lock:
            process = multiprocessing.get_context("fork").Process(
                target=child)
            process.start()
        process.join(60)
        if process.is_alive():
            process.kill()
            process.join()
            pytest.fail("the forked child deadlocked on an inherited lock")
        assert process.exitcode == 0
        assert done.value == 1


class TestBound:
    def test_state_over_the_cap_is_not_held(self, monkeypatch):
        monkeypatch.setattr(avsolver, "NOMINAL_STATE_BYTES", 1)
        solver = AVSolver.for_structure(_layered(), 1e9)
        solver.dc_reference()  # offered over the cap: not held
        assert NOMINAL_SLOT.get(solver._slot_key) is None
        solver.ac_reference(["top", "bottom"])
        assert not AVSolver.for_structure(_layered(), 1e9).nominal_shared

    def test_state_that_grows_over_the_cap_is_dropped(self, monkeypatch):
        solver = AVSolver.for_structure(_layered(), 1e9)
        solver.dc_reference()
        state = solver.nominal_state
        assert NOMINAL_SLOT.get(solver._slot_key) is state
        monkeypatch.setattr(avsolver, "NOMINAL_STATE_BYTES", state.nbytes())
        solver.ac_reference(["top", "bottom"])
        assert state.nbytes() > avsolver.NOMINAL_STATE_BYTES
        assert NOMINAL_SLOT.get(solver._slot_key) is None

    def test_the_slot_holds_the_most_recent_state(self):
        first = _published(_layered())
        second = _published(_layered(eps_r=4.2))
        assert NOMINAL_SLOT.get(first._slot_key) is None
        assert NOMINAL_SLOT.get(second._slot_key) \
            is second.nominal_state
