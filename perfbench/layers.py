"""Per-layer metrics of the traced run.

Times are seconds per round, averaged over every traced round; a
``_s`` metric is inclusive time unless the table says self time.
Counts cover the first ``COUNT_ROUNDS`` traced rounds, which the seed
alone determines, so they repeat exactly for the same seed.  A layer
a workload does not reach reads 0.
"""

from __future__ import annotations

import statistics

#: metric -> (unit, how it is measured).  Span names are those of
#: ``tracing.WRAPPED``.
PER_LAYER = {
    "lang.parse_s": ("s", ("incl", "lang.parse")),
    "comprehension.build_s": ("s", ("incl", "comprehension.build")),
    "core.dependence_s": ("s", ("incl", "core.dependence")),
    "core.schedule_s": ("s", ("incl", "core.schedule")),
    "core.collisions_s": ("s", ("incl", "core.collisions")),
    "core.plan_s": ("s", ("incl", "core.plan")),
    "core.dependence.memo_hit_ratio": ("ratio", ("memo",)),
    "codegen.source_bytes": ("bytes", ("count", "codegen.source_bytes")),
    "codegen.exec_s": ("s", ("self", "codegen.exec")),
    "codegen.kernel_s": ("s", ("self", "codegen.kernel")),
    "codegen.kernel_calls": ("count", ("calls", "codegen.kernel")),
    "backends.lower_s": ("s", ("incl", "backends.lower")),
    "backends.c.cc_s": ("s", ("incl", "backends.c.cc")),
    "backends.c.cc_invocations": ("count", ("native", "cc_invocations")),
    "backends.c.so_load_s": ("s", ("self", "backends.c.load")),
    "backends.c.memo_hits": ("count", ("native", "memo_hits")),
    "backends.c.so_cache_hits": ("count", ("native", "so_cache_hits")),
    "backends.c.kernel_loads": ("count", ("native", "kernel_loads")),
    "backends.native_share": ("ratio", ("native_share",)),
    "program.compile_s": ("s", ("incl", "program.compile")),
    "program.run_s": ("s", ("incl", "program.run")),
    "program.driver_s": ("s", ("self", "program.run", "program.iterate")),
    "program.converge_check_s": ("s", ("incl", "program.converge_check")),
    "program.sweeps": ("count", ("runtime", "iterate.sweeps.double",
                                 "iterate.sweeps.inplace")),
    "program.alloc_arrays": ("count", ("runtime", "alloc.arrays")),
    "dist.run_s": ("s", ("incl", "dist.run")),
    "dist.dispatch_s": ("s", ("incl", "dist.dispatch")),
    "dist.blocks": ("count", ("runtime", "dist.blocks")),
    "dist.halo_cells": ("count", ("runtime", "dist.halo.cells")),
    "dist.wavefront_stages": ("count", ("runtime", "dist.wavefront.stages")),
    "dist.worker_sweeps": ("count", ("runtime", "dist.worker.sweeps")),
    "dist.vs_serial": ("ratio", ("extra", "dist.vs_serial")),
    "ooc.run_s": ("s", ("incl", "ooc.run")),
    "ooc.tiles": ("count", ("runtime", "ooc.tiles")),
    "ooc.bytes_resident": ("bytes", ("per_call", "ooc.bytes.resident",
                                     "ooc.run")),
    "ooc.spill_bytes": ("bytes", ("count", "ooc.spill_bytes")),
    "ooc.vs_inmemory": ("ratio", ("extra", "ooc.vs_inmemory")),
    "service.submit_s": ("s", ("self", "service.submit")),
    "service.fingerprint_s": ("s", ("incl", "service.fingerprint")),
    "service.hit_share.memory": ("ratio", ("tier", "memory")),
    "service.hit_share.disk": ("ratio", ("tier", "disk")),
    "service.hit_share.miss": ("ratio", ("tier", "miss")),
    "service.coalesced": ("count", ("calls", "service.coalesced")),
    "runtime.alloc_cells": ("count", ("runtime", "alloc.cells")),
    "interp.oracle_s": ("s", ("oracle",)),
    "trace.untraced_round_s_p50": ("s", ("overhead", "untraced")),
    "trace.round_s_p50": ("s", ("overhead", "traced")),
    "trace.overhead_s": ("s", ("overhead", "difference")),
}

#: The counts that must repeat bit for bit for one seed.
EXACT = ("program.sweeps", "backends.c.cc_invocations",
         "codegen.source_bytes", "dist.halo_cells", "ooc.tiles",
         "service.hit_share.memory", "service.hit_share.disk",
         "service.hit_share.miss", "service.coalesced")


def snapshot(tracer):
    """Every counter the per-layer metrics read, at one instant."""
    from repro.backends.native import NATIVE_STATS
    from repro.obs.trace import runtime_counters

    return {
        "spans": len(tracer.spans),
        "runtime": runtime_counters(),
        "native": NATIVE_STATS.snapshot(),
        "tracer": dict(tracer.counts),
    }


def _delta(later, earlier, group, key):
    return later[group].get(key, 0) - earlier[group].get(key, 0)


def per_layer(workload, plain, tracer, start, window, end, rounds, extras):
    """Compute every metric of :data:`PER_LAYER` for the traced run."""
    times = tracer.layer_times(start["spans"], end["spans"])
    calls = tracer.layer_times(start["spans"], window["spans"])

    def tier(name):
        served = {t: _delta(window, start, "tracer", f"service.tier.{t}")
                  for t in ("memory", "disk", "none")}
        coalesced = calls.get("service.coalesced", [0, 0, 0])[2]
        served["miss"] = served.pop("none") - coalesced
        total = sum(served.values()) + coalesced
        return served[name] / total if total else 0.0

    untraced = statistics.median(plain.round_s)
    traced = statistics.median(workload.round_s)
    out = {}
    for metric, (unit, (how, *keys)) in PER_LAYER.items():
        if how in ("incl", "self"):
            column = 1 if how == "incl" else 0
            value = sum(times.get(k, [0.0, 0.0, 0])[column]
                        for k in keys) / rounds
        elif how == "calls":
            value = calls.get(keys[0], [0, 0, 0])[2]
        elif how == "count":
            value = _delta(window, start, "tracer", keys[0])
        elif how == "native":
            value = _delta(window, start, "native", keys[0])
        elif how == "runtime":
            value = sum(_delta(window, start, "runtime", k) for k in keys)
        elif how == "per_call":
            runs = calls.get(keys[1], [0, 0, 0])[2]
            value = (_delta(window, start, "runtime", keys[0]) / runs
                     if runs else 0.0)
        elif how == "memo":
            hits = _delta(window, start, "tracer", "dependence.memo.hit")
            misses = _delta(window, start, "tracer", "dependence.memo.miss")
            value = hits / (hits + misses) if hits + misses else 0.0
        elif how == "native_share":
            asked = _delta(end, start, "tracer", "bindings.requested_native")
            ran = _delta(end, start, "tracer", "bindings.ran_native")
            value = ran / asked if asked else 0.0
        elif how == "tier":
            value = tier(keys[0])
        elif how == "extra":
            value = extras.get(keys[0], 0.0)
        elif how == "oracle":
            value = workload.oracle_s
        else:  # overhead
            value = {"untraced": untraced, "traced": traced,
                     "difference": traced - untraced}[keys[0]]
        out[metric] = (value, unit)
    print(f"tracing overhead: traced round_s_p50 {traced:.6f}s - untraced "
          f"{untraced:.6f}s = {traced - untraced:+.6f}s")
    return out


def print_tables(tracer, start, end, rounds):
    """The per-span self-time table and the runtime counters."""
    times = tracer.layer_times(start["spans"], end["spans"])
    print(f"{'span':28s} {'self s/round':>14s} {'incl s/round':>14s} "
          f"{'calls':>9s}")
    for name, (own, incl, calls) in sorted(times.items(),
                                           key=lambda kv: -kv[1][0]):
        print(f"{name:28s} {own / rounds:14.6f} {incl / rounds:14.6f} "
              f"{calls:9d}")
    print("runtime counters over the traced rounds:")
    for key in sorted(end["runtime"]):
        delta = _delta(end, start, "runtime", key)
        if delta:
            print(f"  {key:36s} {delta}")
    print("native tier over the traced rounds: " + ", ".join(
        f"{key} {_delta(end, start, 'native', key)}"
        for key in sorted(end["native"])))
