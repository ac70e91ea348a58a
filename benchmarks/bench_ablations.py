"""Ablation benches for the design-space studies in the paper's text:

* §VI.A.2 — FIFO history depth (32 / 128 / effectively unbounded);
* §VI.A.2 — FIFO history vs the DDT;
* §VI.A.3 — ISRB size;
* §IV.A   — hash width (false-positive rate of the fold);
* §IV.C   — TAGE-like vs gshare-like distance predictor;
* §IV.D.2 — commit-group comparator provisioning.
"""

import dataclasses

from conftest import bench_windows, run_mechanisms

from repro.common.rng import XorShift64
from repro.core.hashing import hash_collision_rate
from repro.core.rsep import RsepConfig
from repro.harness.reporting import Table
from repro.harness.sweep import shared_engine
from repro.pipeline.config import MechanismConfig
from repro.pipeline.core import Pipeline
from repro.pipeline.simulator import _TRACE_SLACK

#: Benchmarks with deep and shallow pair distances respectively.
DEPTH_BENCHMARKS = ["hmmer", "xalancbmk", "mcf", "dealII", "omnetpp"]


def _rsep_variant(name, **overrides):
    rsep = dataclasses.replace(RsepConfig.ideal(), **overrides)
    return dataclasses.replace(
        MechanismConfig.rsep_ideal(), name=name, rsep=rsep
    )


def run_history_depth():
    variants = [
        MechanismConfig.baseline(),
        _rsep_variant("hist32", history_entries=32),
        _rsep_variant("hist128", history_entries=128),
        _rsep_variant("hist4096", history_entries=4096),
    ]
    result = run_mechanisms(DEPTH_BENCHMARKS, variants)
    table = Table(["benchmark", "32-deep%", "128-deep%", "4096-deep%"])
    for name in result.benchmarks:
        table.add_row(
            name,
            *(
                f"{100 * result.speedup(name, v.name):+.1f}"
                for v in variants[1:]
            ),
        )
    print("\n§VI.A.2 — FIFO history depth")
    print(table.render())
    return result


def test_history_depth(benchmark):
    result = benchmark.pedantic(run_history_depth, rounds=1, iterations=1)
    # hmmer's pair distance exceeds 32: the deep history must recover
    # clearly more speedup than the 32-entry one (§VI.A.2).
    assert result.speedup("hmmer", "hist128") > result.speedup(
        "hmmer", "hist32"
    ) + 0.02
    # 128 entries suffice: going (effectively) unbounded adds little.
    assert result.speedup("hmmer", "hist4096") < result.speedup(
        "hmmer", "hist128"
    ) + 0.04


def run_ddt_vs_fifo():
    variants = [
        MechanismConfig.baseline(),
        _rsep_variant("fifo", pairing="fifo", history_entries=128),
        _rsep_variant("ddt", pairing="ddt"),
    ]
    result = run_mechanisms(
        ["mcf", "hmmer", "dealII", "libquantum"], variants
    )
    table = Table(["benchmark", "fifo%", "ddt%"])
    for name in result.benchmarks:
        table.add_row(
            name,
            f"{100 * result.speedup(name, 'fifo'):+.1f}",
            f"{100 * result.speedup(name, 'ddt'):+.1f}",
        )
    print("\n§VI.A.2 — FIFO history vs DDT pairing")
    print(table.render())
    return result


def test_ddt_vs_fifo(benchmark):
    result = benchmark.pedantic(run_ddt_vs_fifo, rounds=1, iterations=1)
    # The FIFO (preferred-distance matching) is never clearly worse than
    # the noise-prone DDT on the RSEP-friendly benchmarks (§VI.A.2).
    for name in ("hmmer", "dealII"):
        assert result.speedup(name, "fifo") >= result.speedup(
            name, "ddt"
        ) - 0.02


def run_isrb_sweep():
    variants = [MechanismConfig.baseline()] + [
        _rsep_variant(f"isrb{entries}", isrb_entries=entries)
        for entries in (4, 12, 24, 64)
    ]
    result = run_mechanisms(["mcf", "dealII", "hmmer"], variants)
    table = Table(["benchmark", "isrb4%", "isrb12%", "isrb24%", "isrb64%"])
    for name in result.benchmarks:
        table.add_row(
            name,
            *(
                f"{100 * result.speedup(name, v.name):+.1f}"
                for v in variants[1:]
            ),
        )
    print("\n§VI.A.3 — ISRB size")
    print(table.render())
    return result


def test_isrb_sweep(benchmark):
    result = benchmark.pedantic(run_isrb_sweep, rounds=1, iterations=1)
    # 24 entries are enough: 64 adds (almost) nothing (§VI.A.3).
    for name in ("dealII", "hmmer"):
        assert result.speedup(name, "isrb64") < result.speedup(
            name, "isrb24"
        ) + 0.03


def run_hash_width():
    rng = XorShift64(99)
    values = [rng.next_u64() for _ in range(200)]
    table = Table(["hash bits", "false-positive rate"])
    rates = {}
    for bits in (8, 10, 12, 14, 16):
        rates[bits] = hash_collision_rate(values, bits)
        table.add_row(str(bits), f"{rates[bits]:.5f}")
    print("\n§IV.A — fold-hash width vs false-positive rate")
    print(table.render())
    return rates


def test_hash_width(benchmark):
    rates = benchmark.pedantic(run_hash_width, rounds=1, iterations=1)
    assert rates[14] <= rates[8]
    assert rates[14] < 0.001


def run_predictor_kind():
    variants = [
        MechanismConfig.baseline(),
        _rsep_variant("tage-dist", predictor_kind="tage"),
        _rsep_variant("gshare-dist", predictor_kind="gshare"),
    ]
    result = run_mechanisms(["mcf", "hmmer", "dealII", "omnetpp"], variants)
    table = Table(["benchmark", "tage%", "gshare%"])
    for name in result.benchmarks:
        table.add_row(
            name,
            f"{100 * result.speedup(name, 'tage-dist'):+.1f}",
            f"{100 * result.speedup(name, 'gshare-dist'):+.1f}",
        )
    print("\n§IV.C — TAGE-like vs gshare-like distance predictor")
    print(table.render())
    return result


def test_predictor_kind(benchmark):
    result = benchmark.pedantic(run_predictor_kind, rounds=1, iterations=1)
    # [11]: the TAGE-like predictor outperforms (or at least matches) the
    # gshare-like one.
    total_tage = sum(
        result.speedup(n, "tage-dist") for n in result.benchmarks
    )
    total_gshare = sum(
        result.speedup(n, "gshare-dist") for n in result.benchmarks
    )
    assert total_tage >= total_gshare - 0.02


def run_comparator_study():
    warmup, measure = bench_windows()
    groups = {}
    # Traces via the shared engine's simulator: served by the persistent
    # store / in-memory cache instead of a private re-interpretation,
    # sized exactly like Simulator.run_benchmark sizes them.
    simulator = shared_engine().simulator
    for name in ("lbm", "gamess", "gobmk", "mcf"):
        trace = simulator.trace_for(name, 1, warmup + measure + _TRACE_SLACK)
        pipeline = Pipeline(
            trace, mechanisms=MechanismConfig.rsep_ideal(), seed=1
        )
        pipeline.run(measure, warmup=warmup)
        groups[name] = pipeline.rsep.pairing
    table = Table(["benchmark", "<=4 comparators", "<=6 comparators"])
    for name, pairing in groups.items():
        table.add_row(
            name,
            f"{100 * pairing.comparator_sufficiency(4):.1f}%",
            f"{100 * pairing.comparator_sufficiency(6):.1f}%",
        )
    print("\n§IV.D.2 — commit-group comparator sufficiency")
    print(table.render())
    return groups


def test_comparator_study(benchmark):
    groups = benchmark.pedantic(run_comparator_study, rounds=1, iterations=1)
    # §IV.D.2 shape: lbm and gamess stress full-width commit groups more
    # than branchy/memory-bound benchmarks do.  (Absolute percentages are
    # burstier here than in the paper: in-order commit drains in
    # full-width bursts after a long-latency head instruction.)
    for pairing in groups.values():
        assert pairing.comparator_sufficiency(8) == 1.0
    assert groups["lbm"].comparator_sufficiency(4) <= groups[
        "gobmk"
    ].comparator_sufficiency(4) + 0.05
