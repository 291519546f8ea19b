"""Command-line interface: inspection, nominal solves, surrogate serving.

Usage::

    python -m repro structures            # registered structures/presets
    python -m repro info tsv --json       # structure inventory
    python -m repro solve metalplug       # nominal coupled solve
    python -m repro build request.json    # build/fetch surrogates
    python -m repro query request.json    # answer statistical queries
    python -m repro serve --port 8787     # always-on JSON/HTTP daemon
    python -m repro store ls              # surrogate store inventory
    python -m repro store gc --max-entries 100   # LRU eviction
    python -m repro campaign run grid.json       # chained sweep campaign
    python -m repro campaign status              # campaign catalogs
    python -m repro campaign query ID q.json     # sweep answer table

``build`` and ``query`` take JSON request files (see
:mod:`repro.serving.service`) and emit JSON responses on stdout, so the
system is scriptable as a service.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys

from repro.errors import ReproError
from repro.extraction import capacitance_column, port_current
from repro.geometry import build_metalplug_structure, build_tsv_structure
from repro.reporting import format_kv_block
from repro.solver import AVSolver
from repro.units import to_femtofarad, to_microampere

STRUCTURES = {
    "metalplug": build_metalplug_structure,
    "tsv": build_tsv_structure,
}

#: Contact names per structure, kept static so the ``structures``
#: inventory command answers without building full meshes (tested
#: against the builders in tests/test_cli.py).
STRUCTURE_CONTACTS = {
    "metalplug": ("plug1", "plug2"),
    "tsv": ("tsv1", "tsv2", "w1", "w2", "w3", "w4"),
}


def _build(name: str):
    try:
        return STRUCTURES[name]()
    except KeyError:
        raise SystemExit(
            f"unknown structure {name!r}; choose from "
            f"{sorted(STRUCTURES)}") from None


def _emit_json(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_info(args) -> int:
    structure = _build(args.structure)
    if args.json:
        kinds = structure.node_kinds()
        _emit_json({
            "structure": args.structure,
            "grid_shape": list(structure.grid.shape),
            "num_nodes": int(structure.grid.num_nodes),
            "materials": [m.name for m in structure.materials.materials],
            "metal_nodes": int(kinds.num_metal),
            "semiconductor_nodes": int(kinds.num_semiconductor),
            "insulator_nodes": int(kinds.num_insulator),
            "contacts": sorted(structure.contacts),
        })
    else:
        print(structure.summary())
    return 0


def cmd_structures(args) -> int:
    from repro.serving import list_presets
    if args.json:
        _emit_json({
            "structures": {
                name: list(STRUCTURE_CONTACTS[name])
                for name in sorted(STRUCTURES)},
            "presets": [{
                "name": preset.name,
                "description": preset.description,
                "defaults": preset.defaults,
            } for preset in list_presets()],
        })
        return 0
    rows = [(name, ", ".join(STRUCTURE_CONTACTS[name]))
            for name in sorted(STRUCTURES)]
    print(format_kv_block(rows, title="registered structures (contacts)"))
    rows = [(preset.name, preset.description)
            for preset in list_presets()]
    print(format_kv_block(rows, title="serving presets"))
    return 0


def cmd_solve(args) -> int:
    structure = _build(args.structure)
    solver = AVSolver(structure, frequency=args.frequency)
    contacts = sorted(structure.contacts)
    driven = contacts[0]
    excitation = {name: (1.0 if name == driven else 0.0)
                  for name in contacts}
    solution = solver.solve(excitation)
    rows = [("frequency [Hz]", f"{args.frequency:.3e}"),
            ("driven contact", driven)]
    payload = {"structure": args.structure, "frequency": args.frequency,
               "driven_contact": driven}
    if args.structure == "tsv":
        column = capacitance_column(solution, driven)
        payload["capacitance_fF"] = {
            name: to_femtofarad(column[name].real) for name in contacts}
        for name in contacts:
            rows.append((f"C[{name}, {driven}] [fF]",
                         f"{to_femtofarad(column[name].real):+.4f}"))
    else:
        currents = {name: port_current(solution, name)
                    for name in contacts}
        payload["current_uA"] = {
            name: to_microampere(abs(current))
            for name, current in currents.items()}
        for name in contacts:
            rows.append((f"I({name}) [uA]",
                         f"{to_microampere(abs(currents[name])):.4f}"))
    if args.json:
        _emit_json(payload)
    else:
        print(format_kv_block(rows,
                              title=f"nominal solve: {args.structure}"))
    return 0


def _overlay_adaptive(spec, args):
    """Apply ``--adaptive``/``--tol``/... build flags onto one spec.

    Identity flags (``--tol``/``--max-solves``/``--max-level``/
    ``--basis``) overlay (and win over) whatever adaptive block the
    request file carries, producing a new spec — and hence a new cache
    key, so adaptive and fixed builds of the same problem never alias.
    (``--workers`` is not a spec overlay: it goes to the build call.)
    """
    from repro.serving.spec import ProblemSpec
    overrides = {}
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.max_solves is not None:
        overrides["max_solves"] = args.max_solves
    if args.max_level is not None:
        overrides["max_level"] = args.max_level
    if args.basis is not None:
        overrides["basis"] = args.basis
    if not args.adaptive and not overrides:
        return spec
    reduction = dict(spec.reduction)
    adaptive = dict(reduction.get("adaptive") or {})
    adaptive.update(overrides)
    reduction["adaptive"] = adaptive
    return ProblemSpec(preset=spec.preset, params=spec.params,
                       reduction=reduction)


def cmd_build(args) -> int:
    from repro.serving import ensure_surrogate, open_store
    from repro.serving.service import load_request_file, parse_request
    from repro.serving.spec import ProblemSpec
    data = load_request_file(args.request)
    if isinstance(data, dict) and "requests" in data:
        specs = [parse_request(req)[0] for req in data["requests"]]
    elif isinstance(data, dict) and "spec" in data:
        specs = [parse_request(data)[0]]
    else:
        specs = [ProblemSpec.from_dict(data)]
    specs = [_overlay_adaptive(spec, args) for spec in specs]
    store = open_store(args.store)
    stack = contextlib.ExitStack()
    tracer = None
    if args.profile:
        # One tracer across the whole invocation: every build's span
        # tree lands in a single Chrome trace-event file.
        from repro.obs import Tracer, activate
        tracer = Tracer()
        stack.enter_context(activate(tracer))
    reports = []
    with stack:
        for spec in specs:
            report = ensure_surrogate(
                spec, store, rebuild=args.rebuild,
                warm_start=not args.no_warm_start,
                workers=args.workers)
            entry = {
                "cache_key": report.cache_key,
                "preset": spec.preset,
                "built": report.built,
                "num_solves": report.num_solves,
                "num_runs": report.record.num_runs,
                "wall_time": report.wall_time,
                "timings": report.timings,
                "output_names": report.record.output_names,
                "adaptive": report.record.refinement is not None,
                "basis": report.record.pce.basis.describe(),
            }
            if report.record.refinement is not None:
                refinement = report.record.refinement
                entry["termination"] = refinement.get("termination")
                entry["error_estimate"] = \
                    refinement.get("error_estimate")
                entry["num_indices"] = \
                    len(refinement.get("indices") or [])
                entry["warm_start_source"] = report.warm_start_source
            reports.append(entry)
    out = {"store": str(store.root), "builds": reports}
    if tracer is not None:
        from repro.obs import write_chrome_trace
        write_chrome_trace(args.profile, tracer)
        out["profile"] = args.profile
    _emit_json(out)
    return 0


def cmd_store_ls(args) -> int:
    import time as _time
    from repro.serving import open_store
    store = open_store(args.store)
    entries = store.inventory()
    if args.json:
        _emit_json({"store": str(store.root), "entries": entries})
        return 0
    if not entries:
        print(f"store {store.root}: empty")
        return 0
    rows = []
    for entry in entries:
        if "damaged" in entry:
            rows.append((entry["key"][:16],
                         f"DAMAGED: {entry['damaged']}"))
            continue
        basis = entry["basis"]
        last_used = _time.strftime(
            "%Y-%m-%d %H:%M", _time.localtime(entry["last_used"]))
        rows.append((
            entry["key"][:16],
            f"{entry['preset']}  {entry['reduction']}  "
            f"basis={basis['kind']}:{basis['order']}  "
            f"{entry['size_bytes']} B  runs={entry['num_runs']}  "
            f"last used {last_used}"))
    print(format_kv_block(
        rows, title=f"surrogate store {store.root} "
                    f"({len(entries)} entries)"))
    return 0


def cmd_store_gc(args) -> int:
    from repro.daemon import run_gc
    from repro.serving import open_store
    store = open_store(args.store)
    report = run_gc(store, max_entries=args.max_entries,
                    max_bytes=args.max_bytes, dry_run=args.dry_run)
    if args.json:
        _emit_json(report)
        return 0
    verb = "would evict" if args.dry_run else "evicted"
    rows = [
        ("store", report["store"]),
        ("caps", f"entries<={args.max_entries}  "
                 f"bytes<={args.max_bytes}"),
        ("before", f"{report['before']['entries']} entries, "
                   f"{report['before']['bytes']} B"),
        ("after", f"{report['after']['entries']} entries, "
                  f"{report['after']['bytes']} B"),
        (verb, str(len(report["evicted"]))),
    ]
    if report["skipped_in_use"]:
        rows.append(("skipped (in use)",
                     str(len(report["skipped_in_use"]))))
    if report["damaged"]:
        rows.append(("damaged (kept)", str(len(report["damaged"]))))
    print(format_kv_block(rows, title="store gc"))
    return 0


def cmd_serve(args) -> int:
    import signal
    from repro.daemon import ReproDaemon
    daemon = ReproDaemon(store_path=args.store, host=args.host,
                         port=args.port,
                         build_missing=not args.no_build,
                         access_log=args.access_log,
                         quiet=args.quiet)
    host, port = daemon.address
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(asctime)s %(name)s %(message)s")

    def _stop(signum, frame):
        # shutdown() blocks until serve_forever returns, so it must
        # run off the serving thread the signal interrupted.
        import threading
        threading.Thread(target=daemon.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    print(f"repro daemon listening on http://{host}:{port} "
          f"(store {daemon.store.root})", flush=True)
    daemon.serve_forever()
    return 0


def cmd_query(args) -> int:
    from repro.serving import open_store, serve_batch
    from repro.serving.service import load_request_file
    batch = load_request_file(args.request)
    store = open_store(args.store)
    result = serve_batch(batch, store,
                         build_missing=not args.no_build)
    _emit_json(result)
    return 1 if any("error" in r for r in result["responses"]) else 0


def _resolve_campaign_id(target: str, store) -> str:
    """A 64-hex campaign id, from an id or a grid file path.

    ``repro campaign status|query`` accept either form: a literal id
    (as printed by ``campaign run``) is used as-is, anything else is
    read as a grid JSON file and hashed — so the same file that ran a
    campaign also addresses its catalog.
    """
    from repro.serving.store import is_cache_key
    if is_cache_key(target):
        return target
    from repro.campaign import CampaignGrid
    from repro.serving.service import load_request_file
    return CampaignGrid.from_dict(
        load_request_file(target)).campaign_id()


def cmd_campaign_run(args) -> int:
    from repro.campaign import run_campaign
    from repro.serving import open_store
    from repro.serving.service import load_request_file
    grid = load_request_file(args.grid)
    store = open_store(args.store)
    progress = None
    if not args.quiet:
        def progress(row):
            print(f"[{row['status']:>6}] {row['key'][:16]}  "
                  f"solves={row['num_solves']}  "
                  f"warm={(row['warm_source'] or '-')[:16]}",
                  file=sys.stderr, flush=True)
    catalog = run_campaign(grid, store, workers=args.workers,
                           segment_workers=args.segment_workers,
                           warm_start=not args.no_warm_start,
                           rebuild=args.rebuild, progress=progress)
    totals = catalog["totals"]
    if args.json:
        _emit_json(catalog)
    else:
        rows = [
            ("campaign", catalog["campaign"]),
            ("store", str(store.root)),
            ("members", str(totals["members"])),
            ("built / hits / failed",
             f"{totals['built']} / {totals['hits']} / "
             f"{totals['failed']}"),
            ("warm-started", str(totals["warm_started"])),
            ("total solves", str(totals["total_solves"])),
        ]
        print(format_kv_block(rows, title="campaign run"))
    return 1 if totals["failed"] else 0


def cmd_campaign_status(args) -> int:
    from repro.campaign import list_catalogs, read_catalog
    from repro.serving import open_store
    store = open_store(args.store)
    if args.target is None:
        campaigns = list_catalogs(store)
        if args.json:
            _emit_json({"store": str(store.root),
                        "campaigns": campaigns})
            return 0
        if not campaigns:
            print(f"store {store.root}: no campaigns")
            return 0
        rows = []
        for row in campaigns:
            if "damaged" in row:
                rows.append((row["campaign"][:16],
                             f"DAMAGED: {row['damaged']}"))
                continue
            totals = row.get("totals") or {}
            rows.append((
                row["campaign"][:16],
                f"{row.get('name') or row.get('preset')}  "
                f"{totals.get('built', 0)}+{totals.get('hits', 0)}"
                f"/{totals.get('members', 0)} built+hit  "
                f"solves={totals.get('total_solves', 0)}"))
        print(format_kv_block(
            rows, title=f"campaigns in {store.root} "
                        f"({len(campaigns)})"))
        return 0
    catalog = read_catalog(store,
                           _resolve_campaign_id(args.target, store))
    if args.json:
        _emit_json(catalog)
        return 0
    rows = []
    for member in catalog.get("members") or []:
        detail = f"{member['status']}  solves={member['num_solves']}"
        if member.get("warm_source"):
            detail += f"  warm={member['warm_source'][:16]}"
        if member.get("error"):
            detail += f"  error: {member['error']}"
        rows.append((member["key"][:16], detail))
    totals = catalog.get("totals") or {}
    rows.append(("totals",
                 f"{totals.get('built', 0)} built, "
                 f"{totals.get('hits', 0)} hits, "
                 f"{totals.get('failed', 0)} failed, "
                 f"{totals.get('pending', 0)} pending; "
                 f"{totals.get('total_solves', 0)} solves"))
    print(format_kv_block(
        rows, title=f"campaign {catalog.get('campaign', '?')[:16]} "
                    f"({catalog.get('name') or catalog.get('preset')})"))
    return 0


def cmd_campaign_query(args) -> int:
    from repro.campaign import query_campaign, read_catalog
    from repro.errors import CampaignError
    from repro.serving import open_store
    from repro.serving.service import load_request_file
    store = open_store(args.store)
    catalog = read_catalog(store,
                           _resolve_campaign_id(args.target, store))
    data = load_request_file(args.request)
    if isinstance(data, list):
        queries = data
    elif isinstance(data, dict) and "queries" in data:
        queries = data["queries"]
    else:
        raise CampaignError(
            f"campaign query file {args.request} must be a list of "
            f"queries or a mapping with a 'queries' list")
    result = query_campaign(catalog, store, queries,
                            num_samples=args.num_samples,
                            seed=args.seed)
    _emit_json(result)
    return 1 if any("error" in member
                    for member in result["members"]) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="variation-aware EM-semiconductor coupled solver "
                    "(DATE'12 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print a structure inventory")
    p_info.add_argument("structure", choices=sorted(STRUCTURES))
    p_info.add_argument("--json", action="store_true",
                        help="machine-readable output")
    p_info.set_defaults(func=cmd_info)

    p_structures = sub.add_parser(
        "structures",
        help="list registered structures and serving presets")
    p_structures.add_argument("--json", action="store_true",
                              help="machine-readable output")
    p_structures.set_defaults(func=cmd_structures)

    p_solve = sub.add_parser("solve", help="run a nominal coupled solve")
    p_solve.add_argument("structure", choices=sorted(STRUCTURES))
    p_solve.add_argument("--frequency", type=float, default=1.0e9,
                         help="excitation frequency in Hz (default 1e9)")
    p_solve.add_argument("--json", action="store_true",
                         help="machine-readable output")
    p_solve.set_defaults(func=cmd_solve)

    p_build = sub.add_parser(
        "build",
        help="build (or fetch) surrogates from a JSON spec/request file")
    p_build.add_argument("request", help="JSON file: a spec, a request, "
                                         "or a batch of requests")
    p_build.add_argument("--store", default=None,
                         help="surrogate store directory "
                              "(default ~/.cache/repro/surrogates)")
    p_build.add_argument("--rebuild", action="store_true",
                         help="rebuild even on a cache hit; implies a "
                              "cold build (stored results are not "
                              "trusted, so none may seed it)")
    p_build.add_argument("--adaptive", action="store_true",
                         help="collocate with the dimension-adaptive "
                              "engine instead of the fixed level-2 grid")
    p_build.add_argument("--tol", type=float, default=None,
                         help="adaptive: relative error tolerance "
                              "(implies --adaptive)")
    p_build.add_argument("--max-solves", type=int, default=None,
                         help="adaptive: hard cap on deterministic "
                              "solves (implies --adaptive)")
    p_build.add_argument("--max-level", type=int, default=None,
                         help="adaptive: cap on the total refinement "
                              "level of any index (implies --adaptive)")
    p_build.add_argument("--basis", choices=("order2", "adaptive"),
                         default=None,
                         help="adaptive: chaos truncation — 'order2' "
                              "keeps the paper's quadratic basis, "
                              "'adaptive' lets the accepted index set "
                              "grow it (implies --adaptive; part of "
                              "the cache key)")
    p_build.add_argument("--workers", type=int, default=None,
                         help="evaluate collocation points on N worker "
                              "processes — refinement waves and the "
                              "fixed level-2 grid alike "
                              "(bitwise-identical result; a build "
                              "argument, never part of the spec)")
    p_build.add_argument("--no-warm-start", action="store_true",
                         help="adaptive: refine from the root index "
                              "even when a stored sibling surrogate "
                              "could seed the build")
    p_build.add_argument("--profile", default=None, metavar="TRACE",
                         help="write a Chrome trace-event JSON of the "
                              "build's span tree (open in "
                              "chrome://tracing or Perfetto); never "
                              "changes what is built or stored")
    p_build.set_defaults(func=cmd_build)

    p_query = sub.add_parser(
        "query",
        help="answer statistical queries from a JSON request file")
    p_query.add_argument("request", help="JSON request/batch file")
    p_query.add_argument("--store", default=None,
                         help="surrogate store directory")
    p_query.add_argument("--no-build", action="store_true",
                         help="fail on a cache miss instead of building")
    p_query.set_defaults(func=cmd_query)

    p_serve = sub.add_parser(
        "serve",
        help="run the always-on surrogate daemon (JSON over HTTP)")
    p_serve.add_argument("--store", default=None,
                         help="surrogate store directory "
                              "(default ~/.cache/repro/surrogates)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8787,
                         help="bind port; 0 picks an ephemeral port "
                              "(default 8787)")
    p_serve.add_argument("--no-build", action="store_true",
                         help="serve read-only: cache misses become "
                              "per-request errors, zero solves run")
    p_serve.add_argument("--access-log", default=None, metavar="PATH",
                         help="append one structured JSONL event per "
                              "request (method, path, status, "
                              "duration) to this file")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress per-request log lines; the "
                              "access log still records")
    p_serve.set_defaults(func=cmd_serve)

    p_store = sub.add_parser(
        "store",
        help="inspect the surrogate store")
    store_sub = p_store.add_subparsers(dest="store_command",
                                       required=True)
    p_store_ls = store_sub.add_parser(
        "ls",
        help="list stored surrogates (cheap: sidecar metadata only)")
    p_store_ls.add_argument("--store", default=None,
                            help="surrogate store directory "
                                 "(default ~/.cache/repro/surrogates)")
    p_store_ls.add_argument("--json", action="store_true",
                            help="machine-readable output")
    p_store_ls.set_defaults(func=cmd_store_ls)
    p_store_gc = store_sub.add_parser(
        "gc",
        help="evict least-recently-used surrogates until the store "
             "fits under the caps (safe against a live daemon)")
    p_store_gc.add_argument("--store", default=None,
                            help="surrogate store directory "
                                 "(default ~/.cache/repro/surrogates)")
    p_store_gc.add_argument("--max-entries", type=int, default=None,
                            help="keep at most N entries (>= 1; the "
                                 "most-recently-used entry always "
                                 "survives)")
    p_store_gc.add_argument("--max-bytes", type=int, default=None,
                            help="keep at most N payload bytes (best "
                                 "effort: the MRU entry survives even "
                                 "when it alone exceeds the cap)")
    p_store_gc.add_argument("--dry-run", action="store_true",
                            help="plan and report without deleting "
                                 "anything")
    p_store_gc.add_argument("--json", action="store_true",
                            help="machine-readable report")
    p_store_gc.set_defaults(func=cmd_store_gc)

    p_campaign = sub.add_parser(
        "campaign",
        help="run and inspect sweep campaigns (warm-start-chained "
             "build fleets over a parameter grid)")
    campaign_sub = p_campaign.add_subparsers(dest="campaign_command",
                                             required=True)
    p_campaign_run = campaign_sub.add_parser(
        "run",
        help="execute a campaign grid: plan the warm-start chains, "
             "build every member, write the catalog into the store")
    p_campaign_run.add_argument(
        "grid", help="campaign grid JSON file (preset, axes/points, "
                     "base_params, reduction)")
    p_campaign_run.add_argument(
        "--store", default=None,
        help="surrogate store directory "
             "(default ~/.cache/repro/surrogates)")
    p_campaign_run.add_argument(
        "--workers", type=int, default=None,
        help="collocation worker processes for every member build "
             "(a build argument, never part of the grid or any spec)")
    p_campaign_run.add_argument(
        "--segment-workers", type=int, default=None,
        help="fan independent chain segments over up to N threads; "
             "builds inside a segment stay sequential so every "
             "chained warm start finds its predecessor on disk")
    p_campaign_run.add_argument(
        "--no-warm-start", action="store_true",
        help="build every member cold (the chain degenerates to a "
             "plain ordered sweep)")
    p_campaign_run.add_argument(
        "--rebuild", action="store_true",
        help="force cold rebuilds even for already-stored members")
    p_campaign_run.add_argument(
        "--quiet", action="store_true",
        help="suppress per-member progress lines on stderr")
    p_campaign_run.add_argument(
        "--json", action="store_true",
        help="emit the full catalog document instead of the summary")
    p_campaign_run.set_defaults(func=cmd_campaign_run)
    p_campaign_status = campaign_sub.add_parser(
        "status",
        help="show a campaign catalog (or list all campaigns in the "
             "store)")
    p_campaign_status.add_argument(
        "target", nargs="?", default=None,
        help="campaign id or grid JSON file; omit to list every "
             "campaign in the store")
    p_campaign_status.add_argument(
        "--store", default=None,
        help="surrogate store directory "
             "(default ~/.cache/repro/surrogates)")
    p_campaign_status.add_argument(
        "--json", action="store_true",
        help="machine-readable output")
    p_campaign_status.set_defaults(func=cmd_campaign_status)
    p_campaign_query = campaign_sub.add_parser(
        "query",
        help="answer statistical queries against every campaign "
             "member and tabulate by the sweep's varying parameters")
    p_campaign_query.add_argument(
        "target", help="campaign id or grid JSON file")
    p_campaign_query.add_argument(
        "request", help="JSON file: a list of queries, or a mapping "
                        "with a 'queries' list")
    p_campaign_query.add_argument(
        "--store", default=None,
        help="surrogate store directory "
             "(default ~/.cache/repro/surrogates)")
    p_campaign_query.add_argument(
        "--num-samples", type=int, default=None,
        help="Monte Carlo sample count per member engine "
             "(default: the query engine's own)")
    p_campaign_query.add_argument(
        "--seed", type=int, default=None,
        help="sampling seed per member engine (default: the query "
             "engine's own)")
    p_campaign_query.set_defaults(func=cmd_campaign_query)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
