"""Human-readable rendering of timings, pattern stats and run metrics.

This module owns every textual report the instrumentation produces: the
MLIR ``-pass-timing`` style table, the rewrite-pattern hit/miss table (both
previously assembled ad-hoc inside ``pass_manager.py`` / ``rewrite.py``)
and the end-of-run summary the driver prints after ``dse`` / ``dnn --dse``
(:func:`render_run_summary`).  :func:`render_metrics_report` adds the
timing and pattern tables to that summary of a metrics JSON document, so
``tools/driver.py report <metrics.json>`` reproduces it offline.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional


# -- pass timings -------------------------------------------------------------------------


def format_timing_report(timings: Mapping[str, float]) -> str:
    """A ``-pass-timing`` style report, slowest pass first.

    Equal times order by pass name, so the report is fully deterministic
    (dict insertion order never decides the table).
    """
    lines = ["===-- Pass execution timing report --==="]
    for name, seconds in sorted(timings.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {seconds * 1000.0:10.3f} ms  {name}")
    total = sum(timings.values())
    lines.append(f"  {total * 1000.0:10.3f} ms  Total")
    return "\n".join(lines)


# -- rewrite pattern stats ----------------------------------------------------------------


def format_pattern_stats(stats: Mapping[str, Iterable[int]],
                         bucket_stats: Mapping[str, Iterable[int]] = ()) -> str:
    """The rewrite-pattern hit/miss table (plus dispatch buckets if any)."""
    stats = {name: tuple(counts) for name, counts in stats.items()}
    lines = ["===-- Rewrite pattern statistics --==="]
    lines.append(f"  {'hits':>8}  {'misses':>8}  pattern")
    for name in sorted(stats, key=lambda n: (-stats[n][0], n)):
        hits, misses = stats[name]
        lines.append(f"  {hits:>8}  {misses:>8}  {name}")
    lines.append(f"  {sum(h for h, _ in stats.values()):>8}  "
                 f"{sum(m for _, m in stats.values()):>8}  Total")
    bucket_stats = {name: tuple(counts)
                    for name, counts in dict(bucket_stats).items()}
    if bucket_stats:
        lines.append("===-- Pattern dispatch buckets (per op name) --===")
        lines.append(f"  {'hits':>8}  {'misses':>8}  bucket")
        for name in sorted(bucket_stats,
                           key=lambda n: (-sum(bucket_stats[n]), n)):
            hits, misses = bucket_stats[name]
            lines.append(f"  {hits:>8}  {misses:>8}  {name}")
    return "\n".join(lines)


# -- metrics-document sections ------------------------------------------------------------


def _grouped_hit_miss(counters: Mapping[str, float],
                      prefix: str) -> dict[str, tuple[int, int]]:
    """``prefix.<name>.hits/misses`` counters as ``{name: (hits, misses)}``."""
    grouped: dict[str, list[int]] = {}
    for name, value in counters.items():
        if not name.startswith(prefix + "."):
            continue
        stem, _, kind = name.rpartition(".")
        if kind not in ("hits", "misses"):
            continue
        entry = grouped.setdefault(stem[len(prefix) + 1:], [0, 0])
        entry[0 if kind == "hits" else 1] += int(value)
    return {name: (hits, misses) for name, (hits, misses) in grouped.items()}


def pass_timings_of(counters: Mapping[str, float],
                    tracks: Optional[Mapping[str, Iterable]] = None
                    ) -> dict[str, float]:
    """The rows of the pass timing table, in seconds.

    With ``tracks`` (a live session's ``tracer.tracks()``): every track's
    ``pass.*`` spans — workers' arrive absorbed, arguments included — summed
    by their ``pipeline`` argument, the ``name{options}`` string, plus the
    ``pass.seconds.prefix.*`` counters, the only record of prefix-snapshot
    builds (they run with the session suspended).  The same rows at any
    ``--jobs``.  Without ``tracks`` (a metrics document holds no spans):
    every ``pass.seconds.*`` counter, one row per pass name.
    """
    stem = "pass.seconds."
    wanted = stem if tracks is None else stem + "prefix."
    timings = {name[len(stem):]: value
               for name, value in counters.items() if name.startswith(wanted)}
    for spans in (tracks or {}).values():
        for span in spans:
            if span.name.startswith("pass."):
                row = span.args["pipeline"]
                timings[row] = timings.get(row, 0.0) + span.duration
    return timings


def pattern_stats_of(counters: Mapping[str, float]
                     ) -> tuple[dict[str, tuple[int, int]],
                                dict[str, tuple[int, int]]]:
    """The ``pattern.*``/``bucket.*`` counters as (stats, bucket_stats)."""
    return (_grouped_hit_miss(counters, "pattern"),
            _grouped_hit_miss(counters, "bucket"))


def render_metrics_report(metrics: Mapping) -> str:
    """The end-of-run summary of one metrics document (see ``--metrics-out``).

    Sections render only when their metrics are present, so the same
    function serves a bare ``compile --print-pass-timing`` run and a full
    ``dnn --dse`` sweep.
    """
    counters = metrics.get("counters", {})
    sections: list[str] = []

    timings = pass_timings_of(counters)
    if timings:
        sections.append(format_timing_report(timings))

    patterns, buckets = pattern_stats_of(counters)
    if patterns:
        sections.append(format_pattern_stats(patterns, buckets))

    summary = render_run_summary(metrics)
    if summary:
        sections.append(summary)

    if not sections:
        return "(no metrics recorded)"
    return "\n".join(sections)


def cache_summary_lines(counters: Mapping[str, float]) -> list[str]:
    """Hit-rate / store lines of the estimate cache (empty if unused)."""
    hits = int(counters.get("cache.hits", 0))
    misses = int(counters.get("cache.misses", 0))
    lookups = hits + misses
    if not lookups and not counters.get("cache.stores"):
        return []
    lines = []
    rate = hits / lookups if lookups else 0.0
    lines.append(f"  lookups={lookups} hits={hits} misses={misses} "
                 f"hit rate={rate * 100.0:.1f}%")
    stores = int(counters.get("cache.stores", 0))
    loaded = int(counters.get("cache.loaded", 0))
    compacted = int(counters.get("cache.compacted", 0))
    line = f"  stores={stores} warm-loaded={loaded}"
    if compacted:
        line += f" compacted={compacted}"
    recovered = int(counters.get("cache.recovered_lines", 0))
    if recovered:
        line += f" recovered-torn-lines={recovered}"
    lines.append(line)
    return lines


def shared_summary_line(points: int, nodes: int) -> str:
    """In-run sharing between structurally identical nodes, in one line.

    ``nodes`` counts the nodes identical to one explored earlier in the
    sweep, ``points`` the evaluations they took over from it instead of
    repeating them (on a warm persistent cache that is 0: every node was
    served from the file, none from a neighbour).
    """
    return (f"  shared {points} evaluation{'' if points == 1 else 's'} across "
            f"{nodes} structurally identical node{'' if nodes == 1 else 's'}")


def resolved_summary_line(resolved: int, points: int, classes: int,
                          aliases: int, identity_seconds: float,
                          skipped_perm: int = 0, skipped_tile: int = 0,
                          unrolled_ifs: tuple[int, int, int] = (0, 0, 0)
                          ) -> str:
    """What evaluating by transform class saved and cost, in one line.

    ``points`` are the design points no cache served, ``classes`` the
    evaluations dispatched for them (one transformed IR each) and
    ``resolved`` the points answered from a classmate's IR instead of their
    own: II-siblings, plus ``aliases`` whose knob values stage to a program
    already answered.  ``identity_seconds`` is what the coordinator spent
    telling the programs apart; ``skipped_perm`` / ``skipped_tile`` count the
    points whose permutation the band dropped / whose tile sizes it changed
    (where the aliases come from); ``unrolled_ifs`` the ``affine.if``s the
    evaluations' unrolling took, dropped and copied undecided.  Like every
    line that counts
    this run's evaluations it says "evaluated", the marker by which output
    comparisons across re-runs and cache warmth skip such lines.
    """
    siblings = resolved - aliases
    taken, dropped, undecided = unrolled_ifs
    return (f"  resolved {resolved} of {points} points from {classes} "
            f"transformed classes ({siblings} II-sibling"
            f"{'' if siblings == 1 else 's'}, {aliases} alias"
            f"{'' if aliases == 1 else 'es'}; each class evaluated once, "
            f"identities planned in {identity_seconds:.2f}s; knobs the band "
            f"did not take as given: perm of {skipped_perm}, tiles of "
            f"{skipped_tile} points; affine.ifs unrolling took: {taken}, "
            f"dropped: {dropped}, copied undecided: {undecided})")


def dse_summary_lines(counters: Mapping[str, float],
                      gauges: Mapping[str, float],
                      series: Mapping[str, list]) -> list[str]:
    """Evaluation throughput, worker utilization and budget consumption."""
    evaluations = int(counters.get("dse.evaluations", 0))
    points = int(counters.get("dse.points", 0))
    if not points:
        return []
    lines = [f"  design points processed={points} evaluated={evaluations} "
             f"(rest cache-served or resolved from a classmate)"]
    resolved = int(counters.get("dse.resolved.siblings", 0)) \
        + int(counters.get("dse.resolved.aliases", 0))
    if evaluations:
        lines.append(resolved_summary_line(
            resolved, evaluations + resolved, evaluations,
            int(counters.get("dse.resolved.aliases", 0)),
            counters.get("dse.identity.seconds", 0.0),
            int(counters.get("dse.knob.skipped.perm", 0)),
            int(counters.get("dse.knob.skipped.tile", 0)),
            tuple(int(counters.get(f"unroll.if.{verdict}", 0))
                  for verdict in ("taken", "dropped", "undecided"))))
    wall = gauges.get("dse.wall_seconds")
    if wall:
        lines.append(f"  evaluations/sec={evaluations / wall:.2f} "
                     f"(wall {wall:.2f}s)")
        jobs = int(gauges.get("dse.jobs", 1))
        busy = counters.get("dse.worker.busy_seconds", 0.0)
        if busy:
            utilization = busy / (wall * max(1, jobs))
            lines.append(f"  worker utilization={utilization * 100.0:.1f}% "
                         f"({jobs} worker(s), {busy:.2f}s busy)")
    faults = {name: int(counters.get(f"dse.faults.{name}", 0))
              for name in ("timeouts", "crashes", "retries", "quarantined")}
    if any(faults.values()):
        respawns = int(counters.get("dse.pool.respawns", 0))
        lines.append(f"  faults: timeouts={faults['timeouts']} "
                     f"crashes={faults['crashes']} "
                     f"retries={faults['retries']} "
                     f"quarantined={faults['quarantined']} "
                     f"(pool respawns={respawns})")
    shared_nodes = int(counters.get("dse.shared.nodes", 0))
    if shared_nodes:
        lines.append(shared_summary_line(
            int(counters.get("dse.shared.points", 0)), shared_nodes))
    prefix_hits = int(counters.get("dse.prefix.hits", 0))
    prefix_misses = int(counters.get("dse.prefix.misses", 0))
    prefix_checkouts = prefix_hits + prefix_misses
    if prefix_checkouts:
        prefix_rate = prefix_hits / prefix_checkouts
        clones = int(counters.get("dse.prefix.clones", 0))
        lines.append(f"  prefix snapshots: checkouts={prefix_checkouts} "
                     f"hits={prefix_hits} misses={prefix_misses} "
                     f"clones={clones} hit rate={prefix_rate * 100.0:.1f}%")
    for name, value in sorted(gauges.items()):
        if name.startswith("dse.node.") and name.endswith(".iterations_done"):
            node = name[len("dse.node."):-len(".iterations_done")]
            granted = gauges.get(f"dse.node.{node}.iterations_budget", 0)
            samples = gauges.get(f"dse.node.{node}.samples_budget", 0)
            lines.append(f"  node {node}: iterations {int(value)}/{int(granted)}"
                         f" (samples budget {int(samples)})")
    for name in sorted(series):
        if name.startswith("dse.frontier.size."):
            node = name[len("dse.frontier.size."):]
            points_series = series[name]
            if points_series:
                final = points_series[-1]
                lines.append(f"  frontier[{node}]: {int(final[1])} points "
                             f"after {int(final[0])} iterations "
                             f"({len(points_series)} snapshots)")
    return lines


def render_run_summary(metrics: Mapping,
                       title: Optional[str] = None) -> str:
    """The cache + DSE sections only (what ``dse``/``dnn`` print at exit)."""
    counters = metrics.get("counters", {})
    sections = []
    cache = cache_summary_lines(counters)
    if cache:
        sections.append("\n".join(["===-- Estimate cache --==="] + cache))
    dse = dse_summary_lines(counters, metrics.get("gauges", {}),
                            metrics.get("series", {}))
    if dse:
        sections.append("\n".join(["===-- DSE run summary --==="] + dse))
    body = "\n".join(sections)
    if title and body:
        return f"{title}\n{body}"
    return body
