"""Problem definition for a variational analysis.

A :class:`VariationalProblem` is everything the stochastic drivers need
to turn a perturbation sample into a quantity-of-interest vector:

* the structure and solver settings (frequency, port excitations);
* the geometry perturbation groups (surface roughness) and the model
  that propagates them onto the mesh (CSV by default, the traditional
  direct model for the Fig. 1 ablation);
* the optional random-doping group and the nominal doping profile;
* the QoI extractor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import StochasticError
from repro.geometry.structure import Structure
from repro.materials.doping import DopingProfile, UniformDoping
from repro.solver.avsolver import AVSolver
from repro.variation.csv_model import ContinuousSurfaceModel
from repro.variation.doping_variation import RandomDopingModel
from repro.variation.naive_model import NaiveSurfaceModel
from repro.variation.groups import PerturbationGroup


@dataclass
class VariationalProblem:
    """One stochastic experiment (one row group of Table I / II).

    Parameters
    ----------
    structure:
        The nominal structure.
    frequency:
        Excitation frequency [Hz].
    excitations:
        ``{contact: complex voltage}`` port drive.  In multi-port mode
        (``ports`` set) this may be ``None``; it then defaults to the
        unit drive on ``ports[0]`` and is only used for the nominal
        (weighting) solution.
    qoi:
        Callable ``ACSolution -> 1-D float array`` (see
        :mod:`repro.analysis.qoi`).  In multi-port mode the callable
        instead receives ``{port name: ACSolution}`` with one entry per
        unit port drive.
    qoi_names:
        Labels of the QoI components.
    geometry_groups:
        Surface-roughness groups (may be empty for doping-only studies).
    doping_group:
        Optional RDF group.
    base_doping:
        Nominal doping profile used when the RDF perturbs it; defaults
        to the uniform profile of the structure's semiconductor.
    surface_model:
        ``"csv"`` (the paper's new model) or ``"naive"`` (Fig. 1a).
    recombination, full_wave:
        Forwarded to :class:`~repro.solver.avsolver.AVSolver`.
    ports:
        Optional ordered contact names enabling *multi-port QoI mode*:
        each sample is solved for every unit port drive in one batch
        (one equilibrium + one factorization + one multi-RHS solve via
        :meth:`AVSolver.solve_ports`) and ``qoi`` sees all ``P``
        solutions at once.  This is how a full admittance /
        capacitance matrix per sample costs barely more than a single
        drive.
    """

    structure: Structure
    frequency: float
    excitations: dict
    qoi: callable
    qoi_names: list
    geometry_groups: list = field(default_factory=list)
    doping_group: PerturbationGroup = None
    base_doping: DopingProfile = None
    surface_model: str = "csv"
    recombination: bool = True
    full_wave: bool = False
    ports: list = None

    def __post_init__(self) -> None:
        if self.surface_model not in ("csv", "naive"):
            raise StochasticError(
                f"unknown surface model {self.surface_model!r}")
        if self.ports is not None:
            self.ports = list(self.ports)
            if not self.ports:
                raise StochasticError(
                    "ports must name at least one contact")
            if self.excitations is None:
                self.excitations = {
                    name: (1.0 if name == self.ports[0] else 0.0)
                    for name in self.ports}
        elif self.excitations is None:
            raise StochasticError(
                "excitations are required unless ports are given")
        if not self.geometry_groups and self.doping_group is None:
            raise StochasticError(
                "problem needs at least one perturbation group")
        for group in self.geometry_groups:
            if group.kind != "geometry":
                raise StochasticError(
                    f"group {group.name!r} is not a geometry group")
        if self.doping_group is not None:
            if self.doping_group.kind != "doping":
                raise StochasticError("doping_group must have kind doping")
            if self.base_doping is None:
                material = self.structure.primary_semiconductor()
                self.base_doping = UniformDoping(material.net_doping)
        self._solver = None
        self._surface = None
        self._doping_model = None

    # ------------------------------------------------------------------
    @property
    def solver(self) -> AVSolver:
        """The problem's own solver, built on first need.  Its nominal
        state is shared with every problem of the same structure
        content, frequency and flags the process solved last
        (:meth:`AVSolver.for_structure
        <repro.solver.avsolver.AVSolver.for_structure>`)."""
        if self._solver is None:
            self._solver = AVSolver.for_structure(
                self.structure, self.frequency,
                recombination=self.recombination,
                full_wave=self.full_wave)
        return self._solver

    @property
    def groups(self) -> list:
        """All perturbation groups, geometry first, doping last."""
        groups = list(self.geometry_groups)
        if self.doping_group is not None:
            groups.append(self.doping_group)
        return groups

    def _surface_model(self):
        if self._surface is None:
            model_cls = (ContinuousSurfaceModel
                         if self.surface_model == "csv"
                         else NaiveSurfaceModel)
            self._surface = model_cls(self.structure.grid)
        return self._surface

    def _get_doping_model(self) -> RandomDopingModel:
        if self._doping_model is None:
            self._doping_model = RandomDopingModel(
                self.base_doping, self.doping_group,
                self.structure.grid.num_nodes)
        return self._doping_model

    # ------------------------------------------------------------------
    def anchors_for(self, xi_by_group: dict) -> dict:
        """Merge per-group displacement vectors into per-axis anchors."""
        anchors = {}
        for group in self.geometry_groups:
            xi = np.asarray(xi_by_group[group.name], dtype=float)
            if xi.shape != (group.size,):
                raise StochasticError(
                    f"group {group.name!r}: expected {group.size} values, "
                    f"got {xi.shape}")
            if group.axis in anchors:
                ids, vals = anchors[group.axis]
                anchors[group.axis] = (
                    np.concatenate([ids, group.node_ids]),
                    np.concatenate([vals, xi]))
            else:
                anchors[group.axis] = (group.node_ids.copy(), xi.copy())
        return anchors

    def _sample_inputs(self, xi_by_group: dict):
        """Resolve one perturbation sample to solver arguments."""
        geometry = None
        if self.geometry_groups:
            anchors = self.anchors_for(xi_by_group)
            geometry = self._surface_model().perturbed_grid(
                anchors, links=self.solver.links)
        doping_profile = None
        if self.doping_group is not None:
            xi = np.asarray(xi_by_group[self.doping_group.name],
                            dtype=float)
            doping_profile = self._get_doping_model().profile_for(xi)
        return geometry, doping_profile

    def solve_sample(self, xi_by_group: dict):
        """Run one deterministic coupled solve for a perturbation sample.

        ``xi_by_group`` maps group names to full-size perturbation
        vectors (node displacements [m] for geometry groups, relative
        doping perturbations for the doping group).

        Returns a single :class:`~repro.solver.ac.ACSolution`, or — in
        multi-port mode — ``{port name: ACSolution}`` from one batched
        :meth:`AVSolver.solve_ports` call (all drives share the
        sample's equilibrium and factorization).
        """
        geometry, doping_profile = self._sample_inputs(xi_by_group)
        if self.ports is not None:
            solutions = self.solver.solve_ports(
                self.ports, geometry=geometry,
                doping_profile=doping_profile)
            return dict(zip(self.ports, solutions))
        return self.solver.solve(self.excitations, geometry=geometry,
                                 doping_profile=doping_profile)

    def evaluate_sample(self, xi_by_group: dict) -> np.ndarray:
        """QoI vector of one perturbation sample."""
        return self.evaluate_samples([xi_by_group])[0]

    def evaluate_samples(self, xis) -> np.ndarray:
        """QoI rows of many perturbation samples, ``(k, outputs)``.

        ``xis`` is an iterable of ``xi_by_group`` mappings (see
        :meth:`solve_sample`), resolved lazily.  The samples go through
        :meth:`AVSolver.solve_samples
        <repro.solver.avsolver.AVSolver.solve_samples>` — blocks whose
        AC chords step in lockstep — and every row is bitwise what a
        lone sample gets, whatever block it shared.
        """
        samples = (self._sample_inputs(xi) for xi in xis)
        if self.ports is not None:
            solutions = self.solver.solve_samples(samples,
                                                  ports=self.ports)
        else:
            solutions = self.solver.solve_samples(
                samples, excitations=self.excitations)
        # map keeps no solution between steps, so the solver's next
        # block is built with no earlier sample alive.
        rows = list(map(self._qoi_values, solutions))
        return np.array(rows).reshape(len(rows), len(self.qoi_names))

    def _qoi_values(self, solution) -> np.ndarray:
        """The QoI vector of one sample's solution (its ``P`` port
        solutions in multi-port mode), shape-checked."""
        if self.ports is not None:
            solution = dict(zip(self.ports, solution))
        values = np.atleast_1d(np.asarray(self.qoi(solution), dtype=float))
        if values.shape != (len(self.qoi_names),):
            raise StochasticError(
                f"qoi returned {values.shape}, expected "
                f"({len(self.qoi_names)},)")
        return values

    def nominal_solution(self):
        """Solve the unperturbed structure (wPFA weights, Fig. 2b)."""
        return self.solver.solve(self.excitations)

    # ------------------------------------------------------------------
    def spec_signature(self) -> dict:
        """Deterministic content fingerprint of the problem.

        JSON-serializable and stable across processes: grid axes,
        frequency, solver flags, QoI labels and a digest of every
        perturbation group's covariance.  The serving layer stores this
        alongside a cached surrogate so a hit can be audited against
        the problem it claims to model (the cache *key* is the
        declarative :class:`~repro.serving.spec.ProblemSpec`; this is
        the resolved-problem cross-check).
        """
        import hashlib

        def digest(array) -> str:
            data = np.ascontiguousarray(np.asarray(array, dtype=float))
            return hashlib.sha256(data.tobytes()).hexdigest()[:16]

        grid = self.structure.grid
        groups = [{
            "name": group.name,
            "kind": group.kind,
            "size": int(group.size),
            "axis": None if group.axis is None else int(group.axis),
            "covariance_sha": digest(group.covariance),
        } for group in self.groups]
        return {
            "grid_axes_sha": digest(np.concatenate(
                [grid.xs, grid.ys, grid.zs])),
            "num_nodes": int(grid.num_nodes),
            "frequency": float(self.frequency),
            "excitations": sorted(
                (name, [float(np.real(v)), float(np.imag(v))])
                for name, v in self.excitations.items()),
            "surface_model": self.surface_model,
            "recombination": bool(self.recombination),
            "full_wave": bool(self.full_wave),
            "ports": None if self.ports is None else list(self.ports),
            "qoi_names": list(self.qoi_names),
            "groups": groups,
        }
