"""Seeded inputs of the ``warm_query`` workload: a store and a request mix.

The store is written through the program's own ``SurrogateStore.save``:
``FILLER_ENTRIES`` tiny one-variable entries plus six real-shaped
surrogates (five Table II-shaped: d=7, order 2, six capacitance
outputs; one Table I-shaped: d=7, one current output).  The real
surrogates come from a fixed *bank* whose coefficients are drawn from
``BANK_SEED``, so the reference answers in ``refs/warm_answers.json``
hold for every run seed; the run seed picks which bank entries the
store holds, which two are hot, the filler parameters and the request
sequence.  The same seed gives the same store bytes and the same
requests.

The request mix is stratified: every block of 100 requests holds
exactly ``MIX`` of each kind, shuffled, so any prefix of the sequence
has nearly exact shares and throughput does not swing with sampling
noise in the mix.
"""

from __future__ import annotations

import numpy as np

#: Bank seed for the real-shaped surrogates' coefficients.
BANK_SEED = 20120312
#: Table II-shaped / Table I-shaped bank sizes.
BANK_TABLE2 = 12
BANK_TABLE1 = 4
#: Bank entries per store: five Table II-shaped plus one Table I-shaped.
STORE_TABLE2 = 5
STORE_TABLE1 = 1
FILLER_ENTRIES = 1000
#: Requests per stratified block, by kind.
MIX = {"moments": 85, "quantiles": 10, "yield": 3, "store": 2}
#: Quantile levels asked at the engine's default sample count and seed.
QUANTILE_LEVELS = [0.01, 0.5, 0.99]
YIELD_SAMPLES = 100000
#: Seeds of the never-repeating yield streams (one reference answer
#: per bank entry and seed); a run draws (surrogate, seed) pairs from
#: these without replacement.
YIELD_SEEDS = list(range(7001, 7041))
CORNER_SIGMA = 3.0
TABLE2_OUTPUTS = ["C_T1", "C_T1T2", "C_T1W1", "C_T1W2", "C_T1W3",
                  "C_T1W4"]
TABLE1_OUTPUTS = ["J_interface"]
DIM = 7


def bank_names() -> list:
    return ([f"t2-{i:02d}" for i in range(BANK_TABLE2)]
            + [f"t1-{i:02d}" for i in range(BANK_TABLE1)])


def bank_entry(name: str):
    """``(ProblemSpec, PolynomialChaos)`` of one bank surrogate."""
    from repro.experiments import table1_spec, table2_spec
    from repro.stochastic.hermite import HermiteBasis
    from repro.stochastic.pce import PolynomialChaos

    number = int(name[3:])
    table2 = name.startswith("t2")
    rng = np.random.default_rng([BANK_SEED, int(table2), number])
    basis = HermiteBasis(DIM, order=2)
    outputs = TABLE2_OUTPUTS if table2 else TABLE1_OUTPUTS
    if table2:
        # Self capacitance positive, couplings negative, ~1e-15 F.
        scale = rng.uniform(1.0, 5.0, len(outputs)) * 1e-15
        scale[1:] *= -0.2
    else:
        scale = rng.uniform(0.8, 1.4, 1) * 1e-4
    orders = np.array([sum(index) for index in basis.indices])
    spread = np.where(orders == 0, 0.0,
                      np.where(orders == 1, 0.03, 0.004))
    coefficients = scale * (1.0 * (orders == 0)[:, None]
                            + spread[:, None]
                            * rng.standard_normal((basis.size,
                                                   len(outputs))))
    # Distinct sigma_m per bank entry: distinct cache keys.
    sigma_m = round(0.3 + 0.001 * number, 6)
    spec = (table2_spec(sigma_m=sigma_m) if table2
            else table1_spec("both", sigma_m=sigma_m))
    return spec, PolynomialChaos(basis, coefficients,
                                 output_names=outputs)


def bank_limit(pce) -> list:
    """The ``yield_below`` limit asked of a bank surrogate: its mean."""
    return pce.mean.tolist()


class WarmInputs:
    """Everything one seed determines for ``warm_query``."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        rng = np.random.default_rng([self.seed, 1])
        table2 = [f"t2-{i:02d}" for i in
                  sorted(rng.choice(BANK_TABLE2, STORE_TABLE2,
                                    replace=False))]
        table1 = [f"t1-{i:02d}" for i in
                  sorted(rng.choice(BANK_TABLE1, STORE_TABLE1,
                                    replace=False))]
        self.surrogates = table2 + table1
        self.hot = [table2[i] for i in
                    sorted(rng.choice(len(table2), 2, replace=False))]
        self.filler_ids = sorted(
            int(i) for i in rng.choice(100000, FILLER_ENTRIES,
                                       replace=False))
        self.entries = {name: bank_entry(name)
                        for name in self.surrogates}
        self.created_at = 1.7e9 + self.seed % 100000

    # ------------------------------------------------------------------
    def write_store(self, root) -> list:
        """Populate a fresh store at ``root``; returns its keys."""
        from repro.serving import ProblemSpec, SurrogateRecord
        from repro.serving import SurrogateStore
        from repro.stochastic.hermite import HermiteBasis
        from repro.stochastic.pce import PolynomialChaos

        store = SurrogateStore(root)
        basis = HermiteBasis(1, order=2)
        filler = PolynomialChaos(basis, np.zeros((basis.size, 1)),
                                 output_names=["q"])
        keys = []
        for number, ident in enumerate(self.filler_ids):
            spec = ProblemSpec(preset="table2",
                               params={"margin_um": 5.0 + 0.001 * ident},
                               reduction={})
            keys.append(store.save(SurrogateRecord(
                pce=filler, spec=spec,
                created_at=self.created_at + number)))
        for number, name in enumerate(self.surrogates):
            spec, pce = self.entries[name]
            keys.append(store.save(SurrogateRecord(
                pce=pce, spec=spec, num_runs=128,
                created_at=self.created_at + FILLER_ENTRIES + number)))
        return sorted(keys)

    # ------------------------------------------------------------------
    def requests(self):
        """Endless request sequence: dicts with ``kind``, ``bank``,
        ``path`` and (for POSTs) ``body``."""
        rng = np.random.default_rng([self.seed, 2])
        yield_pairs = [(name, seed) for name in self.surrogates
                       for seed in YIELD_SEEDS]
        order = rng.permutation(len(yield_pairs))
        next_pair = 0
        kinds = [kind for kind, count in MIX.items()
                 for _ in range(count)]
        while True:
            for position in rng.permutation(len(kinds)):
                kind = kinds[position]
                if kind == "store":
                    yield {"kind": kind, "bank": None, "path": "/store"}
                    continue
                if kind == "moments":
                    name = self.surrogates[
                        int(rng.integers(len(self.surrogates)))]
                    queries = [{"kind": "mean"}, {"kind": "std"},
                               {"kind": "corner", "sigma": CORNER_SIGMA}]
                    extra = None
                elif kind == "quantiles":
                    name = self.hot[int(rng.integers(len(self.hot)))]
                    queries = [{"kind": "quantiles",
                                "q": QUANTILE_LEVELS}]
                    extra = None
                else:
                    name, stream = yield_pairs[
                        order[next_pair % len(order)]]
                    next_pair += 1
                    pce = self.entries[name][1]
                    queries = [{"kind": "yield_below",
                                "limit": bank_limit(pce),
                                "num_samples": YIELD_SAMPLES,
                                "seed": stream}]
                    extra = stream
                spec = self.entries[name][0]
                yield {"kind": kind, "bank": name, "stream": extra,
                       "path": "/query",
                       "body": {"spec": spec.to_dict(),
                                "queries": queries}}


# ----------------------------------------------------------------------
# Reference answers.
# ----------------------------------------------------------------------
def reference_answers() -> dict:
    """Answers of every bank surrogate, computed by the program."""
    from repro.serving import QueryEngine

    answers = {}
    for name in bank_names():
        spec, pce = bank_entry(name)
        engine = QueryEngine(pce)
        corner = engine.corner(CORNER_SIGMA)
        entry = {
            "cache_key": spec.cache_key(),
            "mean": engine.mean().tolist(),
            "std": engine.std().tolist(),
            "corner": {"low": corner["low"].tolist(),
                       "high": corner["high"].tolist()},
            "yield_below": {
                str(seed): engine.yield_below(
                    bank_limit(pce), num_samples=YIELD_SAMPLES,
                    seed=seed).tolist()
                for seed in YIELD_SEEDS},
        }
        if name.startswith("t2"):
            entry["quantiles"] = engine.quantiles(QUANTILE_LEVELS).tolist()
        answers[name] = entry
    return answers


def close(actual, expected, rel: float) -> bool:
    """Nested lists/dicts of numbers agree within ``rel`` relative."""
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and set(actual) == set(expected)
                and all(close(actual[k], expected[k], rel)
                        for k in expected))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(close(a, e, rel)
                        for a, e in zip(actual, expected)))
    return (isinstance(actual, (int, float))
            and abs(actual - expected) <= rel * abs(expected))


def check_response(request: dict, document: dict, refs: dict,
                   store_keys: list, rel: float = 1e-12) -> bool:
    """Does a daemon reply answer ``request`` as the references say?"""
    if request["kind"] == "store":
        rows = document.get("entries")
        return (isinstance(rows, list)
                and sorted(row.get("key") for row in rows) == store_keys)
    responses = document.get("responses")
    if not isinstance(responses, list) or len(responses) != 1:
        return False
    response = responses[0]
    reference = refs[request["bank"]]
    if response.get("cache_key") != reference["cache_key"]:
        return False
    answers = [answer.get("values") for answer in
               response.get("answers", [])]
    if request["kind"] == "moments":
        expected = [reference["mean"], reference["std"],
                    reference["corner"]]
    elif request["kind"] == "quantiles":
        expected = [reference["quantiles"]]
    else:
        expected = [reference["yield_below"][str(request["stream"])]]
    return close(answers, expected, rel)
