"""Fig 7 — per-format performance and win percentages per device.

Asserted shapes (Takeaways 6 & 7): no single format wins everything on the
CPU; research formats collect their wins on the problematic (large /
unbalanced / irregular) matrices even though vendor formats lead overall.
"""

from collections import defaultdict

from repro.analysis import box_stats, format_table, format_wins
from repro.core.table import SweepTable
from repro.formats import get_format

from conftest import emit

DEVICES = ("AMD-EPYC-24", "Tesla-V100", "Alveo-U280")


def _best_rows(formats_sweep, device):
    """Reduce a per-format sweep to one best row per matrix."""
    best = {}
    for r in formats_sweep.rows:
        if r["device"] != device:
            continue
        key = r["matrix"]
        if key not in best or r["gflops"] > best[key]["gflops"]:
            best[key] = r
    return list(best.values())


def _fig7(formats_sweep):
    sections = []
    wins_by_dev = {}
    for dev in DEVICES:
        per_fmt = defaultdict(list)
        for r in formats_sweep.rows:
            if r["device"] == dev:
                per_fmt[r["format"]].append(r["gflops"])
        wins = format_wins(
            SweepTable.from_rows(_best_rows(formats_sweep, dev))
        )
        wins_by_dev[dev] = wins
        table_rows = []
        for fmt, values in sorted(per_fmt.items()):
            s = box_stats(values)
            table_rows.append([
                fmt, get_format(fmt).category, round(wins.get(fmt, 0.0), 1),
                s.n, round(s.q1, 1), round(s.median, 1), round(s.q3, 1),
                round(s.maximum, 1),
            ])
        sections.append(format_table(
            ["format", "category", "wins %", "n", "q1", "median", "q3",
             "max"],
            table_rows, title=f"Fig 7 panel: {dev}",
        ))
    return "\n\n".join(sections), wins_by_dev


def test_fig7_format_wins(benchmark, formats_sweep):
    text, wins = _fig7(formats_sweep)
    benchmark(lambda: _fig7(formats_sweep))
    emit("fig7_format_wins", text)

    # T6: no clear winner on the CPU — the top format takes well under
    # 100% and at least three formats get wins.
    cpu_wins = wins["AMD-EPYC-24"]
    assert len([f for f, w in cpu_wins.items() if w > 0]) >= 3
    assert max(cpu_wins.values()) < 90.0

    # T7: research formats take a substantial share of the CPU wins.
    research = sum(
        w for f, w in cpu_wins.items()
        if get_format(f).category == "research"
    )
    assert research > 10.0


def test_fig7_research_formats_win_problematic(benchmark, formats_sweep):
    """Research formats dominate the problematic subset: large AND
    (unbalanced OR irregular) matrices on the CPU (Takeaway 7)."""

    def _research_share():
        best = _best_rows(formats_sweep, "AMD-EPYC-24")
        problematic = [
            r for r in best
            if r["req_footprint_mb"] >= 256
            and (r["req_skew"] >= 1000 or r["req_sim"] <= 0.05)
        ]
        if not problematic:
            return None
        research = [
            r for r in problematic
            if get_format(r["format"]).category == "research"
        ]
        return len(research) / len(problematic)

    share = benchmark(_research_share)
    emit(
        "fig7_problematic_share",
        f"research-format share of problematic CPU wins: "
        f"{share if share is not None else 'n/a'}",
    )
    assert share is None or share > 0.4
