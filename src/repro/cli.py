"""Command-line interface.

Six subcommands wrap the library's main workflows::

    repro generate   --rows 20000 --avg 25 --skew 50 --out m.mtx
    repro features   m.mtx
    repro simulate   m.mtx --device Tesla-A100 [--format CSR5] [--fp32]
    repro sweep      --scale tiny --devices Tesla-A100,AMD-EPYC-64 --out t.npz
    repro validate   --ids 1,11,39 --device AMD-EPYC-24
    repro experiment --scale tiny --protocol kfold --out result.json
    repro experiment --table t.npz --protocol kfold --out result.json
    repro pack       t.npz --out t.rpak
    repro unpack     t.rpak --out t.npz       (or: run_dir/shards.rpak)
    repro ls         cache_dir/cache.rpak [--verify]
    repro train      --table t.npz --device Tesla-A100 --out model.npz
    repro serve      --table t.npz --selector model.npz --port 8077

Every command prints human-readable tables; ``sweep`` persists the
measurement table (``--format npz|csv|json``, default inferred from the
``--out`` extension) and ``experiment`` either re-sweeps or reuses a
saved table (``--table``), persisting its cross-validated selector
results as deterministic JSON or CSV.  Bad arguments, unknown
device/format/scale names and table schema-version mismatches exit with
status 2 and an actionable message on stderr.

Long sweeps are killable and resumable: ``sweep --run-dir d/`` journals
completed chunks, ``sweep --resume d/`` skips them on a rerun
(byte-identical output), Ctrl-C flushes the journal, prints the resume
hint and exits 130, and ``--chunk-timeout``/``--max-retries``/
``--health-json``/``--faults`` expose the resilient dispatch engine
(see docs/resilience.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from ._version import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Feature-based SpMV performance analysis "
                    "(IPDPS 2023 reproduction)",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate an artificial matrix")
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--cols", type=int, default=None)
    g.add_argument("--avg", type=float, required=True,
                   help="average nonzeros per row (f2)")
    g.add_argument("--skew", type=float, default=0.0, help="f3")
    g.add_argument("--sim", type=float, default=0.5, help="f4.a")
    g.add_argument("--neigh", type=float, default=1.0, help="f4.b")
    g.add_argument("--bw", type=float, default=0.3,
                   help="scaled bandwidth window")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--method", choices=("chain", "rowwise"),
                   default="chain")
    g.add_argument("--out", required=True, help="output .mtx[.gz] path")

    f = sub.add_parser("features", help="print the features of a matrix")
    f.add_argument("matrix", help=".mtx[.gz] path")

    s = sub.add_parser("simulate", help="predict SpMV behaviour")
    s.add_argument("matrix", help=".mtx[.gz] path")
    s.add_argument("--device", default=None,
                   help="testbed name (default: all nine)")
    s.add_argument("--format", dest="format_name", default=None,
                   help="storage format (default: best of the device's)")
    s.add_argument("--fp32", action="store_true",
                   help="single precision instead of double")

    w = sub.add_parser("sweep", help="sweep the artificial dataset")
    w.add_argument("--scale", default="tiny",
                   choices=("tiny", "small", "medium", "large"))
    w.add_argument("--devices", default=None,
                   help="comma-separated testbed names (default: all)")
    w.add_argument("--max-nnz", type=int, default=80_000)
    w.add_argument("--jobs", type=int, default=1,
                   help="parallel sweep workers (0 = auto-detect cores; "
                        "output is identical to --jobs 1)")
    w.add_argument("--cache-dir", default=None,
                   help="persistent cache of per-spec scoring records, "
                        "one cache.rpak pack; warm re-sweeps skip "
                        "matrix generation")
    w.add_argument("--all-formats", action="store_true",
                   help="one row per (matrix, device, format) instead "
                        "of the best format per (matrix, device) — "
                        "required for tables fed to `repro experiment "
                        "--table`")
    w.add_argument("--run-dir", default=None,
                   help="journal completed chunks (a shards.rpak pack "
                        "+ JSONL log) into this directory so a killed "
                        "run can be resumed")
    w.add_argument("--resume", default=None, metavar="RUN_DIR",
                   help="resume a journalled run: skip chunks whose "
                        "shards are already on disk (flags must match "
                        "the original run; output is byte-identical to "
                        "an uninterrupted sweep)")
    w.add_argument("--chunk-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-chunk deadline; a hung worker is killed, "
                        "respawned and the chunk retried (default: no "
                        "deadline)")
    w.add_argument("--max-retries", type=int, default=None,
                   help="retries per chunk before it degrades to an "
                        "in-process re-execution (default 2)")
    w.add_argument("--faults", default=None, metavar="SPEC",
                   help="deterministic fault injection for chaos "
                        "testing, e.g. 'crash@2,hang@5;seed=7' "
                        "(also via REPRO_FAULTS; output stays "
                        "bit-identical)")
    w.add_argument("--health-json", default=None, metavar="PATH",
                   help="write the RunReport (retries, timeouts, "
                        "degraded chunks, quarantined cache entries, "
                        "per-phase wall-clock) as JSON")
    w.add_argument("--out", required=True,
                   help="output table path (.npz lossless columnar, "
                        ".csv typed text, .json dict rows)")
    w.add_argument("--format", dest="table_format", default=None,
                   choices=("npz", "csv", "json"),
                   help="output format (default: inferred from the "
                        "--out extension)")

    v = sub.add_parser("validate", help="mini Table-IV friends experiment")
    v.add_argument("--ids", default="1,11,39",
                   help="comma-separated Table III matrix ids")
    v.add_argument("--device", default="AMD-EPYC-24")
    v.add_argument("--friends", type=int, default=6)

    # Choices come from the experiments registries so the CLI can never
    # drift from what the spec actually accepts (importing the package
    # costs nothing extra: ``repro/__init__`` already pulls its deps).
    from .experiments.spec import MODEL_FAMILIES, PROTOCOLS, SCALES

    e = sub.add_parser(
        "experiment",
        help="cross-validated format-selector experiment",
    )
    e.add_argument("--scale", default="tiny", choices=SCALES)
    e.add_argument("--devices", default=None,
                   help="comma-separated testbed names (default: all)")
    e.add_argument("--formats", default=None,
                   help="comma-separated candidate formats "
                        "(default: each device's Table-II list)")
    e.add_argument("--protocol", default="kfold", choices=PROTOCOLS,
                   help="kfold: per-device instance folds; lodo: "
                        "leave-one-device-out transfer")
    e.add_argument("--folds", type=int, default=5,
                   help="fold count for the kfold protocol")
    e.add_argument("--model", default="forest",
                   choices=sorted(MODEL_FAMILIES))
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--max-nnz", type=int, default=80_000)
    e.add_argument("--limit", type=int, default=None,
                   help="use only the first N dataset specs (smoke runs)")
    e.add_argument("--table", default=None,
                   help="run over a saved sweep table (.npz/.csv from "
                        "`repro sweep --out`) instead of re-sweeping; "
                        "must be a per-format sweep at the experiment's "
                        "precision")
    e.add_argument("--fp32", action="store_true",
                   help="score the sweep at single precision")
    e.add_argument("--jobs", type=int, default=1,
                   help="parallel sweep workers (0 = auto-detect cores; "
                        "results are identical to --jobs 1)")
    e.add_argument("--cache-dir", default=None,
                   help="persistent scoring-record cache directory")
    e.add_argument("--out", default=None,
                   help="write results to a .json (full, deterministic) "
                        "or .csv (per-fold summary) file")

    p = sub.add_parser(
        "pack", help="pack a saved sweep table into a single .rpak file",
    )
    p.add_argument("src",
                   help="saved table (.npz from `repro sweep --out`)")
    p.add_argument("--out", default=None,
                   help="pack path (default: <src>.rpak)")

    u = sub.add_parser(
        "unpack",
        help="expand a table pack back into a table, or a run dir's "
             "shards.rpak into one table per chunk",
    )
    u.add_argument("pack", help=".rpak path")
    u.add_argument("--out", required=True,
                   help="destination: a table path (.npz) for table "
                        "packs, a directory for shard packs")

    ls = sub.add_parser("ls", help="list the entries of a .rpak pack")
    ls.add_argument("pack", help=".rpak path")
    ls.add_argument("--verify", action="store_true",
                    help="also read every entry and check its checksum")

    t = sub.add_parser(
        "train",
        help="fit a format selector from a saved sweep table and "
             "persist it (shared by `repro serve`)",
    )
    t.add_argument("--table", required=True,
                   help="per-format sweep table (`repro sweep "
                        "--all-formats --out t.npz`) or packed table "
                        "(.rpak)")
    t.add_argument("--device", default=None,
                   help="device slice to train on (required when the "
                        "table spans several devices)")
    t.add_argument("--formats", default=None,
                   help="comma-separated candidate formats (default: "
                        "the formats present in the slice)")
    t.add_argument("--model", default="forest",
                   choices=sorted(MODEL_FAMILIES))
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True,
                   help="selector artifact path (.npz)")

    srv = sub.add_parser(
        "serve",
        help="serve format-selection and sweep-slice queries over "
             "HTTP (POST /select, GET /sweep|/healthz|/stats)",
    )
    srv.add_argument("--table", required=True,
                     help="sweep corpus: saved table (.npz/.csv/.json) "
                          "or packed table (.rpak)")
    srv.add_argument("--selector", default=None,
                     help="trained selector artifact (`repro train "
                          "--out m.npz`); default: fit from the table "
                          "at startup")
    srv.add_argument("--device", default=None,
                     help="device slice to fit on when training at "
                          "startup (required for multi-device tables)")
    srv.add_argument("--formats", default=None,
                     help="comma-separated candidate formats for a "
                          "startup fit")
    srv.add_argument("--model", default="forest",
                     choices=sorted(MODEL_FAMILIES),
                     help="model family for a startup fit")
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument("--save-selector", default=None, metavar="PATH",
                     help="persist the startup-fitted selector so later "
                          "boots can --selector it")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8077,
                     help="listen port (0 picks a free one)")
    srv.add_argument("--max-batch", type=int, default=64,
                     help="most /select requests one batched "
                          "evaluate answers; the requests read in one "
                          "poll of the event loop share calls of at most "
                          "this many (responses are bit-identical to "
                          "unbatched calls)")
    srv.add_argument("--access-log", default="-", metavar="PATH",
                     help="structured JSON request log: a path, '-' "
                          "for stderr (default), or 'off'")
    return parser


# ---------------------------------------------------------------------------
def _prepare_output_path(path_str: str, what: str) -> None:
    """Make ``path_str`` writable before hours of work depend on it.

    Creates missing parent directories and probes writability ("a" so
    an existing file is not truncated); unwritable paths raise the
    CLI's actionable ``ValueError`` (exit 2) instead of surfacing a
    raw traceback after the run has already burned its compute.
    """
    from pathlib import Path

    path = Path(path_str)
    try:
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        probe_created = not path.exists()
        with open(path, "a"):
            pass
        if probe_created:
            # Don't leave a stray empty file if the run later fails.
            os.remove(path)
    except OSError as exc:
        raise ValueError(
            f"cannot write {what} to {path_str!r}: {exc}; create the "
            "directory or pick a writable path"
        ) from exc


def _cmd_generate(args) -> int:
    from .core.generator import artificial_matrix_generation
    from .io import write_mtx

    mat = artificial_matrix_generation(
        args.rows, args.cols or args.rows, args.avg,
        skew_coeff=args.skew, bw_scaled=args.bw, cross_row_sim=args.sim,
        avg_num_neigh=args.neigh, seed=args.seed, method=args.method,
    )
    write_mtx(args.out, mat)
    print(f"wrote {mat.n_rows}x{mat.n_cols} nnz={mat.nnz} to {args.out}")
    return 0


def _cmd_features(args) -> int:
    from .core.features import extract_features, regularity_class
    from .io import read_mtx

    feats = extract_features(read_mtx(args.matrix))
    for key, value in feats.to_dict().items():
        print(f"{key:24s} {value:.6g}")
    print(f"{'regularity_class':24s} {regularity_class(feats)}")
    return 0


def _cmd_simulate(args) -> int:
    from .analysis import format_table
    from .devices import TESTBEDS, get_device
    from .formats import FormatError
    from .io import read_mtx
    from .perfmodel import (
        MatrixInstance, simulate_best_detailed, simulate_spmv,
    )

    inst = MatrixInstance.from_matrix(read_mtx(args.matrix),
                                      name=args.matrix)
    precision = "fp32" if args.fp32 else "fp64"
    devices = (
        [get_device(args.device)] if args.device else TESTBEDS.values()
    )
    rows = []
    for dev in devices:
        try:
            if args.format_name:
                m = simulate_spmv(inst, args.format_name, dev,
                                  precision=precision)
            else:
                outcome = simulate_best_detailed(inst, dev,
                                                 precision=precision)
                m = outcome.best
        except FormatError as exc:
            rows.append([dev.name, args.format_name or "-",
                         f"failed: {exc}", "-", "-"])
            continue
        if m is None:
            reasons = "; ".join(
                f"{s.format}: {s.reason}" for s in outcome.skipped
            )
            rows.append([dev.name, "-",
                         f"all formats failed ({reasons})", "-", "-"])
            continue
        rows.append([dev.name, m.format, round(m.gflops, 2),
                     round(m.gflops_per_watt, 3), m.bottleneck])
    print(format_table(
        ["device", "format", "GFLOPS", "GFLOPS/W", "bottleneck"],
        rows, title=f"Predicted SpMV ({precision})",
    ))
    return 0


def _cmd_sweep(args) -> int:
    from .core.dataset import Dataset, sweep
    from .core.feature_space import build_dataset_specs
    from .devices import TESTBEDS, get_device
    from .io import save_table
    from .io.tableio import _resolve_format
    from .pipeline import RunReport, resolve_jobs
    from pathlib import Path

    # Fail on an unknown extension, a missing parent directory or an
    # unwritable path before minutes of sweeping.
    _resolve_format(Path(args.out), args.table_format)
    _prepare_output_path(args.out, "the sweep table")
    if args.health_json:
        _prepare_output_path(args.health_json, "the run report")
    if args.resume and args.run_dir and args.resume != args.run_dir:
        raise ValueError(
            "--resume already names the run directory; drop --run-dir "
            "or make them equal"
        )
    run_dir = args.resume or args.run_dir
    devices = (
        [get_device(d) for d in args.devices.split(",")]
        if args.devices
        else list(TESTBEDS.values())
    )
    dataset = Dataset(
        build_dataset_specs(args.scale), max_nnz=args.max_nnz,
        name=args.scale,
    )
    jobs = resolve_jobs(args.jobs)
    engine = f"{jobs} worker{'s' if jobs != 1 else ''}"
    if args.cache_dir:
        engine += f", cache at {args.cache_dir}"
    if run_dir:
        engine += f", {'resuming' if args.resume else 'journal at'} "
        engine += run_dir
    print(
        f"sweeping {len(dataset)} matrices on "
        f"{', '.join(d.name for d in devices)} ({engine}) ..."
    )
    report = RunReport()
    try:
        # Progress callbacks fire in the parent process under every
        # engine, so one carriage-return line works for serial and
        # parallel runs alike.
        table = sweep(
            dataset, devices, best_only=not args.all_formats,
            jobs=args.jobs, cache_dir=args.cache_dir,
            run_dir=run_dir, resume=bool(args.resume),
            faults=args.faults, chunk_timeout=args.chunk_timeout,
            max_retries=args.max_retries, report=report,
            progress=lambda i, n: print(f"\r  {i}/{n}", end="",
                                        flush=True),
        )
    except KeyboardInterrupt:
        # The engine has already flushed the journal (every completed
        # chunk's shard + record hit disk before this propagated).
        print()
        if args.health_json:
            report.write(args.health_json)
        if run_dir:
            print(
                f"interrupted — completed chunks are journalled; pick "
                f"up where this run stopped with:\n"
                f"  repro sweep --resume {run_dir} ... (same flags)",
                file=sys.stderr,
            )
        raise
    print()
    fmt = save_table(args.out, table, fmt=args.table_format)
    print(f"wrote {len(table)} measurement rows to {args.out} ({fmt})")
    if report.total_retries or report.chunks_degraded or report.timeouts:
        print(
            f"resilience: {report.total_retries} retries "
            f"({report.retries}), {len(report.chunks_degraded)} "
            f"degraded chunks, {report.cache_quarantined} quarantined "
            "cache entries"
        )
    if args.health_json:
        report.write(args.health_json)
        print(f"wrote run report to {args.health_json}")
    return 0


def _cmd_validate(args) -> int:
    from .analysis import format_table
    from .core.validation import (
        VALIDATION_SUITE, ape_best, friend_specs, mape, surrogate_spec,
    )
    from .devices import get_device
    from .perfmodel import MatrixInstance, simulate_best

    ids = {int(t) for t in args.ids.split(",")}
    device = get_device(args.device)
    refs, meds, rows = [], [], []
    for vm in VALIDATION_SUITE:
        if vm.id not in ids:
            continue
        base = simulate_best(
            MatrixInstance.from_spec(surrogate_spec(vm), max_nnz=60_000,
                                     name=vm.name),
            device,
        )
        if base is None:
            rows.append([vm.id, vm.name, "infeasible", "-", "-"])
            continue
        friends = []
        for k, fs in enumerate(
            friend_specs(vm, n_friends=args.friends, seed=3)
        ):
            m = simulate_best(
                MatrixInstance.from_spec(fs, max_nnz=60_000,
                                         name=f"{vm.name}~{k}"),
                device,
            )
            if m is not None:
                friends.append(m.gflops)
        if not friends:
            rows.append([vm.id, vm.name, round(base.gflops, 2), "-", "-"])
            continue
        refs.append(base.gflops)
        meds.append(float(np.median(friends)))
        rows.append([
            vm.id, vm.name, round(base.gflops, 2),
            round(float(np.median(friends)), 2),
            round(ape_best(base.gflops, friends), 2),
        ])
    title = f"Validation on {device.name}"
    if refs:
        title += f" — MAPE {mape(refs, meds):.2f}%"
    print(format_table(
        ["id", "matrix", "GFLOPS", "friends median", "APE-best %"],
        rows, title=title,
    ))
    return 0


def _cmd_experiment(args) -> int:
    from .experiments import ExperimentSpec, run_experiment
    from .io import write_rows

    if args.out:
        # Fail before the sweep runs, not after minutes of work: check
        # the extension, then probe that the path is writable ("a" so an
        # existing file is not truncated by the probe).
        if not args.out.endswith((".json", ".csv")):
            raise ValueError(
                f"unknown output extension for {args.out!r}; "
                "use .json (full result) or .csv (per-fold summary)"
            )
        probe_created = not os.path.exists(args.out)
        with open(args.out, "a"):
            pass
        if probe_created:
            # Don't leave a stray empty file if the run later fails.
            os.remove(args.out)
    spec = ExperimentSpec(
        scale=args.scale,
        devices=tuple(args.devices.split(",")) if args.devices else (),
        formats=tuple(args.formats.split(",")) if args.formats else None,
        precision="fp32" if args.fp32 else "fp64",
        max_nnz=args.max_nnz,
        limit=args.limit,
        protocol=args.protocol,
        n_splits=args.folds,
        seed=args.seed,
        model=args.model,
    )
    names = ", ".join(spec.device_names)
    table = None
    if args.table:
        from .io import load_table

        table = load_table(args.table)
        print(
            f"loaded {len(table)} measurement rows from {args.table}; "
            f"running {spec.protocol} experiment on {names} "
            f"(model={spec.model}, seed={spec.seed}) ..."
        )
    else:
        print(
            f"running {spec.protocol} experiment on {names} "
            f"(scale={spec.scale}, model={spec.model}, "
            f"seed={spec.seed}) ..."
        )
    result = run_experiment(
        spec, jobs=args.jobs, cache_dir=args.cache_dir,
        progress=lambda i, n: print(f"\r  sweep {i}/{n}", end="",
                                    flush=True),
        table=table,
    )
    print()
    print(result.render())
    if args.out:
        if args.out.endswith(".json"):
            with open(args.out, "w") as fh:
                fh.write(result.to_json())
        else:
            write_rows(args.out, result.to_rows())
        print(f"wrote results to {args.out}")
    return 0


_TABLE_PREFIX = "table/"
_CHUNK_RE = r"chunk-(\d{6})/"


def _cmd_pack(args) -> int:
    from pathlib import Path

    from .io import load_table
    from .io.pack import PackWriter

    src = Path(args.src)
    if not src.exists():
        raise ValueError(
            f"{src} does not exist; point `repro pack` at a saved sweep "
            "table (.npz)"
        )
    if src.is_dir():
        raise ValueError(
            f"{src} is a directory; a cache directory already keeps its "
            "records in one pack (list it with `repro ls "
            f"{src / 'cache.rpak'}`)"
        )
    table = load_table(src)
    out = Path(args.out) if args.out else src.with_suffix(".rpak")
    blobs = table.to_blobs(prefix=_TABLE_PREFIX)
    with PackWriter.create(out) as writer:
        for key in sorted(blobs):
            kind = "meta" if key.endswith("__meta__") else "col"
            writer.add(key, kind, blobs[key])
    print(
        f"packed {len(table)} table rows ({len(blobs)} column blobs) "
        f"into {out} ({out.stat().st_size} bytes)"
    )
    return 0


def _cmd_unpack(args) -> int:
    import re
    from pathlib import Path

    from .core.table import SweepTable
    from .io.pack import Pack

    out = Path(args.out)
    with Pack.open(args.pack) as pack:
        keys = pack.keys()
        if any(key.startswith(_TABLE_PREFIX) for key in keys):
            if out.suffix != ".npz":
                raise ValueError(
                    f"{args.pack} holds a packed table; --out must be "
                    "an .npz path (tables unpack to the lossless "
                    "columnar format)"
                )
            table = SweepTable.from_blobs(
                {k: pack.read(k) for k in keys
                 if k.startswith(_TABLE_PREFIX)},
                prefix=_TABLE_PREFIX,
            )
            out.parent.mkdir(parents=True, exist_ok=True)
            table.to_npz(out)
            print(f"unpacked {len(table)} table rows to {out}")
            return 0
        chunk_ids = sorted({
            m.group(1) for m in
            (re.match(_CHUNK_RE, key) for key in keys) if m
        })
        if not chunk_ids:
            raise ValueError(
                f"{args.pack} holds neither a table nor journalled "
                "chunks; cache records live only in their pack — list "
                f"them with `repro ls {args.pack}`"
            )
        out.mkdir(parents=True, exist_ok=True)
        for cid in chunk_ids:
            prefix = f"chunk-{cid}/"
            table = SweepTable.from_blobs(
                {k: pack.read(k) for k in keys if k.startswith(prefix)},
                prefix=prefix,
            )
            table.to_npz(out / f"chunk-{cid}.npz")
    print(f"unpacked {len(chunk_ids)} chunk tables to {out}")
    return 0


def _cmd_ls(args) -> int:
    from pathlib import Path

    from .io.pack import PACK_VERSION, Pack

    path = Path(args.pack)
    with Pack.open(path) as pack:
        records = pack.records()
        live = set(pack.keys())
        print(
            f"{path}: pack v{PACK_VERSION}, {len(live)} entries "
            f"({len(records)} records), {path.stat().st_size} bytes"
        )
        print(f"{'KEY':<40} {'KIND':<6} {'SIZE':>10} {'STORED':>10}")
        last = {rec.key: i for i, rec in enumerate(records)}
        for i, rec in enumerate(records):
            marker = "" if last[rec.key] == i else "  (shadowed)"
            print(
                f"{rec.key:<40} {rec.kind:<6} {rec.osize:>10} "
                f"{rec.csize:>10}{marker}"
            )
        if args.verify:
            for key in pack.keys():
                pack.read(key)  # raises PackError on any bad checksum
            print("all checksums verified")
    return 0


def _cmd_train(args) -> int:
    from .service import load_corpus, train_selector

    _prepare_output_path(args.out, "the selector artifact")
    if not args.out.endswith(".npz"):
        raise ValueError(
            f"unknown output extension for {args.out!r}; selector "
            "artifacts are .npz files"
        )
    table = load_corpus(args.table)
    formats = args.formats.split(",") if args.formats else None
    selector = train_selector(
        table, device=args.device, formats=formats,
        model=args.model, seed=args.seed,
    )
    selector.to_npz(args.out)
    n = len(table.unique("matrix")) if "matrix" in table.names else 0
    print(
        f"trained {args.model} selector on {n} matrices "
        f"({len(table)} rows); formats: "
        f"{', '.join(selector.formats)}"
    )
    print(f"wrote selector artifact to {args.out}")
    return 0


def _cmd_serve(args) -> int:
    from .ml.selector import FormatSelector
    from .service import ReproService, ServiceApp, load_corpus, \
        train_selector

    table = load_corpus(args.table)
    if args.selector:
        selector = FormatSelector.from_npz(args.selector)
        origin = f"selector from {args.selector}"
    else:
        formats = args.formats.split(",") if args.formats else None
        selector = train_selector(
            table, device=args.device, formats=formats,
            model=args.model, seed=args.seed,
        )
        origin = f"selector fitted at startup ({args.model})"
        if args.save_selector:
            _prepare_output_path(
                args.save_selector, "the selector artifact"
            )
            selector.to_npz(args.save_selector)
            print(f"wrote selector artifact to {args.save_selector}")
    access_log = None
    log_handle = None
    if args.access_log == "-":
        access_log = sys.stderr
    elif args.access_log != "off":
        _prepare_output_path(args.access_log, "the access log")
        log_handle = open(args.access_log, "a")
        access_log = log_handle
    app = ServiceApp(selector, table, max_batch=args.max_batch)
    service = ReproService(
        app, host=args.host, port=args.port, access_log=access_log
    )
    host, port = service.address
    print(
        f"serving http://{host}:{port} — {len(table)} corpus rows, "
        f"{origin}, batch max={args.max_batch}"
    )
    print("endpoints: POST /select, GET /sweep, /healthz, /stats")
    try:
        service.run()  # returns after SIGTERM/SIGINT drain
    finally:
        if log_handle is not None:
            log_handle.close()
    print("drained and stopped")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "features": _cmd_features,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "experiment": _cmd_experiment,
    "pack": _cmd_pack,
    "unpack": _cmd_unpack,
    "ls": _cmd_ls,
    "train": _cmd_train,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (``repro`` console script)."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        # Ctrl-C is a normal way to stop a long sweep, not a bug: no
        # traceback, the conventional 128+SIGINT exit status, and any
        # journal/report flushing already happened on the way up
        # (``repro sweep`` prints the --resume hint itself).
        print("interrupted", file=sys.stderr)
        return 130
    except ValueError as exc:
        # ValueError is this codebase's validation convention (specs,
        # registries, generators all raise it with actionable messages
        # for bad input), so it follows the argparse exit convention.
        # The cost is that an internal ValueError bug would be masked
        # too — set REPRO_DEBUG=1 to re-raise with the full traceback.
        if os.environ.get("REPRO_DEBUG", "") not in ("", "0"):
            raise
        print(f"error: {exc.args[0] if exc.args else exc}",
              file=sys.stderr)
        return 2
    except KeyError as exc:
        # The registries raise KeyError("unknown <kind> ...; available:
        # ...") for name lookups.  Only that convention is user input —
        # any other KeyError is a bug and must keep its traceback.
        message = exc.args[0] if exc.args else ""
        if isinstance(message, str) and message.startswith("unknown "):
            print(f"error: {message}", file=sys.stderr)
            return 2
        raise
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
