"""Reference format stats: convert each format for real, then reduce.

Before every built-in format computed its structural statistics in
closed form from the CSR arrays, ``MatrixInstance.format_stats`` could
run with ``stats_engine = "materialise"``: convert the representative
with ``from_csr`` (padded payloads and all) and reduce the result.
:func:`materialised_format_stats` is that engine, unchanged, with its own
copy of the declared-density rule, so the analytic path can be compared
with it cell for cell and timed against it
(``benchmarks/bench_cold_sweep.py``).
"""

from repro.formats.base import FormatStats, get_format


def materialised_format_stats(instance, format_name: str) -> FormatStats:
    """``format_name``'s stats for ``instance`` through a full
    conversion; raises the ``FormatError`` ``from_csr`` raises.

    A rectangular representative dilutes per-column populations, so a
    density-corrected format (one with ``stats_at_density``) rescales
    to the declared per-channel density when the declared and
    representative column densities differ by more than 5%.
    """
    cls = get_format(format_name)
    fmt = cls.from_csr(instance.matrix)
    if hasattr(cls, "stats_at_density"):
        rep_density = instance.matrix.nnz / max(instance.matrix.n_cols, 1)
        dec_density = instance.nnz / max(instance.n_cols, 1)
        if rep_density > 0 and abs(dec_density / rep_density - 1.0) > 0.05:
            return fmt.stats_at_density(dec_density / cls.N_CHANNELS)
    return fmt.stats()
