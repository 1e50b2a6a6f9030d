#!/usr/bin/env python3
"""Campaign benchmark: time from config to published dataset, and to figures.

Run from the root of a checkout:

    python3 perfbench/run.py --workload distributed --seed 1 --seconds 36 --trace 0

Each workload is a batch job. A run spawns the campaign_bench binary again
and again for --seconds seconds. Every process makes one campaign call,
from a config to the published (merged, stage-2 anonymised) log, then
regenerates the campaign's figures from that log and prints what it
measured. The seed picks a block of STRIDE campaigns of the workload, one
from each of STRIDE size strata of the recorded campaigns, so a run's
medians cover the workload's spread of campaign sizes rather than one draw
of it; a run always makes whole cycles of its block, so each campaign
weighs the same. Campaigns run in rounds of WORKERS processes, and between
rounds every worker runs the host_speed probe; each process's timings are
scaled to the reference host speed by the probe rounds either side of it
(see README.md, "Host-speed scaling"). The harness checks every process's
output, then prints medians over the processes. The last line of stdout is
one JSON object: correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics. --trace 1 runs each campaign
twice, traced and untraced in alternating order; it reports the per-layer
metrics from the traced processes and the tracing overhead from the pairs,
prints a layer-share table, and writes every span to
.bench_build/traces/<workload>-seed<seed>.json.

Other modes:
    --selftest        check the repository's mini goldens, and that a
                      perturbed or missing expected value is reported as
                      a failed run
    --record OFFSETS  record expected.json for campaign offsets, e.g. 0-511

The first run builds src/, campaign_bench and host_speed into
.bench_build/perfbench.
"""

import argparse
import json
import os
import statistics
from statistics import median
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "campaign_bench"
HOST_SPEED = BUILD / "host_speed"
EXPECTED = HERE / "expected.json"

# Campaigns per benchmark seed: a run cycles through this block.
STRIDE = 8
# Blocks: expected.json records BLOCKS * STRIDE campaigns per workload
# (offsets 0 to 511). Sorted by record count they form STRIDE strata of
# BLOCKS campaigns; seed n takes the (n mod BLOCKS)-th of each stratum, so
# seeds n and n + BLOCKS run the same campaigns.
BLOCKS = 64
# Campaign processes running at once. The host's cores each slow down on
# their own schedule (other tenants), so spreading a run's samples over
# every core steadies its medians.
WORKERS = max(1, min(4, os.cpu_count() or 1))
PROCESS_TIMEOUT_S = 120  # a run must end within 180 s
# host_speed's median kernel time, four at once, on the reference host
# (a 4-core Xeon VM at 2.0 GHz in a quiet phase). Timings are reported as
# seconds at that speed.
REFERENCE_KERNEL_S = 0.40

# Campaign configs per workload.
WORKLOADS = {
    # 24 honeypots, 4 files, 32 days, with the top peer: event engine,
    # network, codec and HELLO/upload logging; a 24-way merge.
    "distributed": dict(campaign="distributed", base_seed=20081001,
                        scale=0.1, days=32, honeypots=24, chaos="off"),
    # One honeypot harvesting shared lists on day 1, then advertising
    # thousands of files: server keyword index, shared-list ingest,
    # stage-1 hashing, renumbering a large peer set.
    "greedy": dict(campaign="greedy", base_seed=20081101, scale=0.05, days=15),
    # The distributed campaign with every fault, abuse, Byzantine, clock and
    # budget axis on: recovery, journal, spool, salvage and skew merge.
    "chaos": dict(campaign="distributed", base_seed=20081001, scale=0.1,
                  days=8, honeypots=24, chaos="composed"),
}

# The repository's mini goldens (tests/test_scenario.cpp).
GOLDENS = [
    ("distributed-mini",
     dict(campaign="distributed", seed=20081001, scale=0.02, days=8,
          honeypots=8, chaos="off"),
     {"records": 28945, "fingerprint": "0xad6b1b6fa123723a"}),
    ("greedy-mini",
     dict(campaign="greedy", seed=20081101, scale=0.05, days=5),
     {"records": 479288, "fingerprint": "0x7fe276d7b5708429"}),
]

END_TO_END_UNITS = {"campaign_s": "s", "records_per_s": "1/s",
                    "report_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}

# Per-layer timings: metric name -> span name.
LAYER_SPANS = {
    "scenario.simulate_s": "scenario.simulate",
    "scenario.publish_s": "scenario.publish",
    "logbook.merge_s": "logbook.merge",
    "logbook.write_s": "logbook.write",
    "logbook.read_s": "logbook.read",
    "anonymize.renumber_s": "anonymize.renumber",
    "analysis.by_day_s": "analysis.by_day",
    "analysis.subsets_s": "analysis.subsets",
    "analysis.co_interest_s": "analysis.co_interest",
}
# Per-layer counts, as the campaign result gives them.
LAYER_COUNTS = [
    "sim.events", "sim.scheduled", "sim.cancelled", "sim.peak_heap",
    "net.messages", "net.bytes", "net.connects", "net.refusals",
    "net.datagrams_dropped", "net.malformed", "net.peak_live_nodes",
    "peer.arrivals", "peer.peak_active", "peer.slab_slots",
    "honeypot.records_born", "honeypot.relaunches", "honeypot.retries",
    "logbook.merged_names", "logbook.chunks_accepted",
    "logbook.journal_entries", "anonymize.distinct_peers",
    "audit.born", "audit.accounted", "audit.unaccounted",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; exits 2 on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no src/ next to perfbench/; run from a full checkout")
        sys.exit(2)
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    build_log = BUILD_ROOT / "build.log"
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                out.flush()
                log(f"perfbench: build failed: {' '.join(cmd)}\n"
                    f"{build_log.read_text()[-4000:]}")
                sys.exit(2)


def block(workload, seed):
    """The STRIDE campaign offsets of a seed, smallest stratum first."""
    table = recorded(workload)
    if len(table) != BLOCKS * STRIDE:
        log(f"perfbench: expected.json records {len(table)} {workload} "
            f"campaigns, not {BLOCKS * STRIDE}")
        sys.exit(2)
    by_size = sorted(table, key=lambda o: (table[o]["records"], o))
    return [sorted(by_size[s * BLOCKS:(s + 1) * BLOCKS])[seed % BLOCKS]
            for s in range(STRIDE)]


def host_speed():
    """Kernel seconds of WORKERS host_speed probes run at once; exits 2 if
    a probe fails or the checksums differ."""
    def probe(_):
        proc = subprocess.run([str(HOST_SPEED)], capture_output=True,
                              text=True, timeout=PROCESS_TIMEOUT_S)
        return json.loads(proc.stdout) if proc.returncode == 0 else None
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        outs = list(pool.map(probe, range(WORKERS)))
    if None in outs or len({o["checksum"] for o in outs}) != 1:
        log(f"perfbench: host_speed failed: {outs}")
        sys.exit(2)
    return [o["kernel_s"] for o in outs]


def campaign_config(workload, offset):
    cfg = dict(WORKLOADS[workload])
    cfg["seed"] = (cfg.pop("base_seed") + offset) % 2**64
    return cfg


def spawn(cfg, trace):
    """One campaign process. Returns its parsed output, or an error string."""
    args = [str(BINARY)] + [f"--{k.replace('_', '-')}={v}"
                            for k, v in cfg.items()]
    args.append(f"--trace={int(trace)}")
    start = time.monotonic_ns()
    try:
        proc = subprocess.run(args, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {PROCESS_TIMEOUT_S} s"
    end = time.monotonic_ns()
    if proc.returncode != 0:
        return (f"exit code {proc.returncode}: "
                f"{proc.stderr.strip()[-500:] or 'no message'}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "no JSON result on stdout"
    out["spawn_ns"] = start
    out["exit_ns"] = end
    out["traced"] = trace
    # Set-up: process start (spawn) to the start of the campaign call.
    out["setup_s"] = (out["campaign_start_ns"] - start) * 1e-9
    return out


def exact_counts(out):
    return dict(out["counts"], fingerprint=out["fingerprint"])


def check(out, expected, earlier):
    """Failed output checks of one process, as messages (empty: passed).

    `expected` holds the recorded record count and fingerprint of this
    campaign, or None if none is recorded, which fails the process.
    `earlier` holds every exact count an earlier process of the same run
    printed for the same campaign, or None.
    """
    if isinstance(out, str):
        return [out]
    failures = [f"check failed: {name}"
                for name, ok in out["checks"].items() if not ok]
    if expected is None:
        failures.append("no recorded value for this campaign in "
                        "expected.json")
    counts = exact_counts(out)
    for source, want in (("recorded", expected),
                         ("earlier process", earlier)):
        for key, value in (want or {}).items():
            if counts.get(key) != value:
                failures.append(f"{key} = {counts.get(key)}, {source} "
                                f"value {value}")
    return failures


def evaluate(runs, expected):
    """Check every (campaign, output) of a run.

    `expected` maps campaign -> recorded values. Exact counts are compared
    between the processes of this run that ran the same campaign; nothing
    is kept between runs, so a change that moves a count is judged only by
    the recorded record count and fingerprint.
    Returns (attempted, failed, messages).
    """
    failed, messages, first = 0, [], {}
    for i, (campaign, out) in enumerate(runs):
        failures = check(out, expected.get(campaign), first.get(campaign))
        if not isinstance(out, str):
            first.setdefault(campaign, exact_counts(out))
        if failures:
            failed += 1
            messages += [f"process {i} (campaign {campaign}): {f}"
                         for f in failures]
    return len(runs), failed, messages


def load_json(path):
    return json.loads(path.read_text()) if path.is_file() else {}


def recorded(workload):
    """Recorded [records, fingerprint] per campaign offset, as checks."""
    table = load_json(EXPECTED).get(workload, {})
    return {int(k): {"records": v[0], "fingerprint": v[1]}
            for k, v in table.items()}


def end_to_end(outs, scaled=True):
    """Medians over `outs`, each process's times at reference host speed
    (times its "host_scale"), or as measured if not `scaled`."""
    f = [o["host_scale"] if scaled else 1.0 for o in outs]
    return {
        "campaign_s": median([k * o["campaign_s"] for k, o in zip(f, outs)]),
        "records_per_s": median([o["counts"]["records"] / (k * o["campaign_s"])
                                 for k, o in zip(f, outs)]),
        "report_s": median([k * o["report_s"] for k, o in zip(f, outs)]),
        "peak_rss_mib": median([o["peak_rss_bytes"] / 2**20 for o in outs]),
        "setup_s": median([k * o["setup_s"] for k, o in zip(f, outs)]),
    }


def span_seconds(out, name):
    return sum(s["end_ns"] - s["start_ns"] for s in out["spans"]
               if s["name"] == name) * 1e-9


def per_layer(pairs):
    """Per-layer metrics from (traced, untraced) output pairs, one pair per
    campaign; times at reference host speed."""
    traced = [t for t, _ in pairs]
    metrics = {}
    for metric, span in LAYER_SPANS.items():
        metrics[metric] = (median([o["host_scale"] * span_seconds(o, span)
                                   for o in traced]), "s")
    days = [sorted(o["host_scale"] * (s["end_ns"] - s["start_ns"]) * 1e-9
                   for s in o["spans"] if s["name"] == "sim.day")
            for o in traced]
    metrics["sim.day_s.p50"] = (median([median(d) for d in days]), "s")
    metrics["sim.day_s.max"] = (median([d[-1] for d in days]), "s")
    # Counts: the lower median over the traced campaigns, so each is one
    # campaign's exact count.
    for name in LAYER_COUNTS:
        metrics[name] = (statistics.median_low(
            [o["counts"][name] for o in traced]), "count")
    metrics["sim.recycle_rate"] = (median(
        [1.0 - o["counts"]["sim.slot_allocations"] / o["counts"]["sim.scheduled"]
         for o in traced]), "ratio")
    metrics["sim.events_per_s"] = (median(
        [o["counts"]["sim.events"]
         / (o["host_scale"] * span_seconds(o, "scenario.simulate"))
         for o in traced]), "1/s")
    metrics["trace.campaign_s"] = (median(
        [o["host_scale"] * o["campaign_s"] for o in traced]), "s")
    metrics["trace.overhead_pct"] = (100.0 * (median(
        [t["campaign_s"] / u["campaign_s"] for t, u in pairs]) - 1.0), "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def span_tree(outs, run_prefix):
    """All spans of `outs`, each process rooted at a span covering it."""
    spans = []
    for i, out in enumerate(outs):
        run = f"{run_prefix}-{i}"
        base = len(spans)
        spans.append({"run": run, "id": base, "name": "process", "parent": None,
                      "start_ns": out["spawn_ns"], "end_ns": out["exit_ns"]})
        spans.append({"run": run, "id": base + 1, "name": "setup",
                      "parent": base, "start_ns": out["spawn_ns"],
                      "end_ns": out["campaign_start_ns"]})
        for s in out["spans"]:
            parent = base if s["parent"] < 0 else base + 2 + s["parent"]
            spans.append(dict(s, run=run, id=base + 2 + s["id"], parent=parent))
    return spans


def self_times(spans):
    """Span name -> summed self time (duration minus children's), ns."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = (child.get(s["parent"], 0)
                                  + s["end_ns"] - s["start_ns"])
    totals = {}
    for s in spans:
        own = s["end_ns"] - s["start_ns"] - child.get(s["id"], 0)
        totals[s["name"]] = totals.get(s["name"], 0) + own
    return totals


def print_layer_shares(spans):
    totals = self_times(spans)
    whole = sum(totals.values())
    print(f"{'span':<24}{'self s':>10}{'share':>9}")
    for name, ns in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"{name:<24}{ns * 1e-9:>10.3f}{100.0 * ns / whole:>8.1f}%")


def measure(workload, seed, seconds, trace):
    """Runs the campaigns and the host-speed probes. Returns (groups,
    probes): per campaign started, in start order, [(campaign offset,
    output)], one entry untraced and two traced; and every probe's kernel
    seconds.

    The run goes in rounds: WORKERS campaign processes at once, then, when
    all have ended, one host_speed probe per worker at once, so no probe
    runs next to a campaign. A probe round also opens the run. Process i
    runs block(workload, seed)[i % STRIDE]. The run makes whole cycles of
    STRIDE campaigns: the first always, and another only while it is
    expected to end within `seconds`, so every campaign is sampled equally
    often however fast the code is. Traced, a worker runs each campaign
    twice, alternating which variant goes first.
    """
    offsets = block(workload, seed)
    start = time.monotonic()
    groups, probes = [], host_speed()

    def campaign(i):
        cfg = campaign_config(workload, offsets[i % STRIDE])
        runs = []
        for traced in ([i % 2 == 0, i % 2 == 1] if trace else [False]):
            runs.append((offsets[i % STRIDE], spawn(cfg, traced)))
            if isinstance(runs[-1][1], str):
                break
        return runs

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        while True:
            cycle_start, cycle_end = time.monotonic(), len(groups) + STRIDE
            for first in range(len(groups), cycle_end, WORKERS):
                ids = range(first, min(first + WORKERS, cycle_end))
                before = median(probes[-WORKERS:])
                round_groups = list(pool.map(campaign, ids))
                probes += host_speed()
                # The round's host speed: the mean of the probe rounds
                # either side of it.
                scale = 2 * REFERENCE_KERNEL_S / (before
                                                  + median(probes[-WORKERS:]))
                for _, out in (run for g in round_groups for run in g):
                    if not isinstance(out, str):
                        out["host_scale"] = scale
                groups += round_groups
            # A crashed or hung process ends the run.
            if any(isinstance(out, str) for g in groups for _, out in g):
                break
            now = time.monotonic()
            if now - start + (now - cycle_start) > seconds:
                break
    return groups, probes


def run_workload(args):
    build()
    groups, probes = measure(args.workload, args.seed, args.seconds,
                             args.trace)
    runs = [run for group in groups for run in group]
    attempted, failed, messages = evaluate(runs, recorded(args.workload))
    for m in messages:
        print(f"FAILED {m}")

    good = [out for _, out in runs if not isinstance(out, str)]
    metrics = {}
    if args.trace:
        pairs = [(a, b) if a["traced"] else (b, a)
                 for (_, a), (_, b) in (g for g in groups if len(g) == 2)
                 if not isinstance(a, str) and not isinstance(b, str)]
        if pairs:
            metrics = per_layer(pairs)
            traced = [t for t, _ in pairs]
            spans = span_tree(traced, f"{args.workload}-seed{args.seed}")
            trace_dir = BUILD_ROOT / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            path = trace_dir / f"{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps({"workload": args.workload,
                                        "seed": args.seed, "spans": spans}))
            print(f"layer shares (self time over {len(traced)} traced "
                  f"processes; spans in {path.relative_to(ROOT)}):")
            print_layer_shares(spans)
    elif good:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end(good).items()}
        raw = end_to_end(good, scaled=False)
        print("unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print(f"workload={args.workload} seed={args.seed} processes={attempted} "
          f"campaigns={len({c for c, _ in runs})} analysis_threads="
          f"{','.join(sorted({str(o['threads']) for o in good}))} "
          f"host_speed_s={median(probes):.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_selftest():
    """The mini goldens pass; a perturbed or missing expected value is a
    failed run."""
    build()
    ok = True
    for name, cfg, golden in GOLDENS:
        out = spawn(cfg, False)
        cases = [("golden", golden)]
        for key in golden:
            wrong = (golden[key] + 1 if key == "records"
                     else f"0x{int(golden[key], 16) ^ 1:016x}")
            cases.append((f"perturbed {key}", dict(golden, **{key: wrong})))
        for label, want in cases:
            attempted, failed, messages = evaluate([(0, out)], {0: want})
            print(f"{name}: {label} {want['records']} / {want['fingerprint']}:"
                  f" attempted={attempted} failed={failed}")
            for m in messages:
                print(f"  {m}")
            if label == "golden":
                ok = ok and failed == 0
            else:
                key = label.split()[-1]
                ok = ok and failed == 1 and any(key in m for m in messages)
        # A campaign with nothing recorded fails rather than passing unchecked.
        attempted, failed, messages = evaluate([(0, out)], {})
        print(f"{name}: nothing recorded: attempted={attempted} "
              f"failed={failed}")
        for m in messages:
            print(f"  {m}")
        ok = ok and failed == 1 and any("no recorded value" in m
                                        for m in messages)
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def parse_offsets(text):
    offsets = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        offsets += range(int(lo), int(hi or lo) + 1)
    return offsets


def run_record(offsets, jobs):
    """Record the record count and fingerprint per workload and campaign."""
    build()
    table = load_json(EXPECTED)
    todo = [(w, o) for w in WORKLOADS for o in offsets]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        outs = pool.map(lambda wo: spawn(campaign_config(*wo), False), todo)
        for (workload, offset), out in zip(todo, outs):
            if isinstance(out, str) or not all(out["checks"].values()):
                log(f"{workload} {offset}: run failed, not recorded: {out}")
                return 1
            table.setdefault(workload, {})[str(offset)] = [
                out["counts"]["records"], out["fingerprint"]]
    lines = []
    for workload, rows in table.items():
        cells = [f'"{k}": {json.dumps(v)}'
                 for k, v in sorted(rows.items(), key=lambda kv: int(kv[0]))]
        body = ",\n    ".join(cells)
        lines.append(f'  "{workload}": {{\n    {body}\n  }}')
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        help="'all' runs every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record", metavar="OFFSETS")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel processes for --record")
    args = parser.parse_args()
    if args.selftest:
        return run_selftest()
    if args.record:
        return run_record(parse_offsets(args.record), args.jobs)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload != "all":
        return run_workload(args)
    for workload in WORKLOADS:
        run_workload(argparse.Namespace(**dict(vars(args), workload=workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
