"""Per-layer primitive probes on seeded inputs.

Each probe times single calls of one public operation and reports the
median per call together with its sample count.  Inputs are drawn from
``random.Random(seed)``; the probe sizes are fixed, so a run's cost does not
depend on the seed.
"""

from __future__ import annotations

import random
import statistics
import time

import bruhatcells as bc

# samples per probe at full size; the self-test divides them by 10
SAMPLES = {
    "coxeter.gen_step_us": 300,
    "coxeter.product_us": 2000,
    "coxeter.length_us": 1000,
    "coxeter.bruhat_leq_cold_us": 1000,
    "permutations.to_weyl_us": 1000,
    "sl_criteria.query_us": 4000,
    "oracle.matmul_us": 4000,
    "oracle.cell_pattern_us": 4000,
    "oracle.opposite_cell_us": 4000,
}
WORD_LENGTH = 60
ORBIT_ELEMENT_TARGET = 5000


def _time_calls(fn, args_list):
    clock = time.perf_counter_ns
    out = []
    for args in args_list:
        start = clock()
        fn(*args)
        out.append(clock() - start)
    return out


def _us(samples_ns, per=1):
    return statistics.median(samples_ns) / 1e3 / per


def _random_word(rng, rank, length):
    return [rng.randint(1, rank) for _ in range(length)]


def _random_perm(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return bc.Permutation(images)


def _random_sl(rng, field, n):
    while True:
        g = bc.MatrixFq(field, n, [rng.randrange(field.p) for _ in range(n * n)])
        if g.det() == 1:
            return g


def run_probes(seed: int, scale: int = 1) -> dict:
    """All probes; ``scale`` divides the sample counts."""
    rng = random.Random(seed)
    n = {k: max(10, v // scale) for k, v in SAMPLES.items()}
    out: dict = {}

    def record(name, samples_ns, per=1):
        out[name] = _us(samples_ns, per)
        out[name[: -len("_us")] + ".samples"] = len(samples_ns)

    e7 = bc.build_root_system("E7")
    words = [_random_word(rng, 7, WORD_LENGTH) for _ in range(n["coxeter.gen_step_us"])]
    record(
        "coxeter.gen_step_us",
        _time_calls(bc.word_to_element, [(e7, w) for w in words]),
        WORD_LENGTH,
    )
    pairs = [
        (bc.word_to_element(e7, _random_word(rng, 7, WORD_LENGTH)),
         bc.word_to_element(e7, _random_word(rng, 7, WORD_LENGTH)))
        for _ in range(n["coxeter.product_us"])
    ]
    record("coxeter.product_us", _time_calls(lambda u, v: u * v, pairs))
    fresh = [(u * v,) for u, v in pairs[: n["coxeter.length_us"]]]
    record("coxeter.length_us", _time_calls(lambda w: w.length, fresh))

    a7 = bc.build_root_system("A7")
    leq_pairs = []
    for _ in range(n["coxeter.bruhat_leq_cold_us"]):
        u, w = (bc.permutation_to_weyl(a7, _random_perm(rng, 8)) for _ in range(2))
        leq_pairs.append((u, w) if u.length <= w.length else (w, u))
    record("coxeter.bruhat_leq_cold_us", _time_calls(bc.bruhat_leq, leq_pairs))
    record("coxeter.bruhat_leq_warm_us", _time_calls(bc.bruhat_leq, leq_pairs))

    perms = [(a7, _random_perm(rng, 8)) for _ in range(n["permutations.to_weyl_us"])]
    record("permutations.to_weyl_us", _time_calls(bc.permutation_to_weyl, perms))

    classes = list(bc.abstract_jordan_classes(6))
    invs = list(bc.involutions(6))
    queries = [
        (rng.choice(classes), rng.choice(invs)) for _ in range(n["sl_criteria.query_us"])
    ]
    record("sl_criteria.query_us", _time_calls(bc.involution_cell_meets, queries))

    f5 = bc.PrimeField(5)
    mats = [_random_sl(rng, f5, 3) for _ in range(n["oracle.matmul_us"] + 1)]
    record("oracle.matmul_us", _time_calls(lambda g, h: g * h, zip(mats, mats[1:])))
    singles = [(g,) for g in mats[: n["oracle.cell_pattern_us"]]]
    record("oracle.cell_pattern_us", _time_calls(bc.bruhat_cell, singles))
    singles = [(g,) for g in mats[: n["oracle.opposite_cell_us"]]]
    record("oracle.opposite_cell_us", _time_calls(bc.opposite_bruhat_cell, singles))

    e6 = bc.build_root_system("E6")
    grown = 0
    elapsed = 0
    classes_grown = 0
    target = ORBIT_ELEMENT_TARGET // scale
    while grown < target:
        w = bc.word_to_element(e6, _random_word(rng, 6, 2 * WORD_LENGTH))
        start = time.perf_counter_ns()
        grown += len(bc.conjugacy_class(w))
        elapsed += time.perf_counter_ns() - start
        classes_grown += 1
    out["conjugacy.orbit_elements_per_s"] = grown / (elapsed / 1e9)
    out["conjugacy.orbit.samples"] = classes_grown
    return out
