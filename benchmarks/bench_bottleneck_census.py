"""Bottleneck census — the quantitative form of the paper's conclusion.

"SpMV remains a memory-bound algorithm, but low ILP shows up for short
rows, memory latency is mostly pronounced on GPUs, and load imbalance is
effectively handled by most storage formats."  The census reports, per
device, what fraction of the dataset each bottleneck dominates.
"""

from repro.analysis import bottleneck_census, format_table

from conftest import emit


def _census_table(dataset_sweep):
    census = bottleneck_census(dataset_sweep, by="device")
    rows = []
    for dev, fractions in census.items():
        rows.append([
            dev,
            round(fractions.get("memory_bandwidth", 0.0), 1),
            round(fractions.get("low_ilp", 0.0), 1),
            round(fractions.get("memory_latency", 0.0), 1),
            round(fractions.get("load_imbalance", 0.0), 1),
        ])
    return format_table(
        ["device", "mem BW %", "low ILP %", "latency %", "imbalance %"],
        rows, title="Dominant bottleneck per device (best-format runs)",
    ), census


def test_bottleneck_census(benchmark, dataset_sweep):
    text, census = _census_table(dataset_sweep)
    benchmark(lambda: _census_table(dataset_sweep))
    emit("bottleneck_census", text)

    # Memory bandwidth dominates overall (the paper's headline).
    for dev in ("AMD-EPYC-64", "Tesla-A100"):
        assert census[dev].get("memory_bandwidth", 0.0) > 40.0, dev
    # Load imbalance almost never dominates: the best format absorbs it.
    for dev, fractions in census.items():
        assert fractions.get("load_imbalance", 0.0) < 25.0, dev
    # Short rows make low ILP a real secondary concern somewhere.
    assert any(
        fractions.get("low_ilp", 0.0) > 5.0
        for fractions in census.values()
    )
