"""The three workloads: what a round runs, and how its outputs are checked.

Every workload drives the public API only (``repro.compile``,
``repro.compile_program``, ``CompiledProgram.__call__``,
``CompileService.submit``) and compares every output, outside the
timed region, with a reference the compiler under test did not
produce: the hand-written C of ``handwritten.c`` or
``repro.kernels.ref_swap``.  Each program is also checked once against
the lazy interpreter at a small size, in ``check_setup``.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

import repro
from repro import CompileRequest, CompileService
from repro.backends.native import clear_kernel_memo
from repro.codegen.emit import CodegenOptions
from repro.kernels import PROGRAM_CATALOG, WAVEFRONT_F

from refs import HandWritten, same_bits

C = CodegenOptions(backend="c")
#: New sessions that reload a solve workload's programs from the disk
#: tier; each reload is one ``compile_warm_s`` sample per program.
WARM_SESSIONS = 5


def source_of(name: str) -> str:
    return WAVEFRONT_F if name == "wavefront_f" \
        else PROGRAM_CATALOG[name]["source"]


def cell_updates(name: str, params: Dict, sweeps: int) -> int:
    """Result cells times sweeps: the work one run of ``name`` does."""
    if name == "wavefront_f":
        return params["n"] ** 2
    if name == "program_pipeline":
        return params["n"]
    if name == "program_swap":
        return params["m"] * params["n"]
    if name == "program_stencil_chain":
        return (params["m"] - 2) ** 2
    return params["m"] ** 2 * sweeps


#: Small sizes for the lazy-oracle differential (the oracle takes
#: about two seconds at m=64, k=5).
ORACLE_PARAMS = {
    "wavefront_f": {"n": 8},
    "program_jacobi_steps": {"m": 8, "k": 5},
    "program_jacobi": {"m": 8, "tol": 1e-3},
    "program_sor": {"m": 8, "k": 5, "omega": 1.25},
    "program_stencil_chain": {"m": 10},
    "program_pipeline": {"n": 24},
    "program_swap": {"m": 5, "n": 7, "r": 2, "s": 4},
}


@dataclass(frozen=True)
class Program:
    """One program of a workload: what is requested and at what size."""

    name: str
    params: tuple                  # sorted (key, value) pairs
    backend: str = "c"
    tile: Optional[int] = None
    flags: tuple = ()              # dist/workers/ooc request fields

    @classmethod
    def of(cls, name, params, backend="c", tile=None, **flags):
        return cls(name, tuple(sorted(params.items())), backend, tile,
                   tuple(sorted(flags.items())))

    @property
    def env(self) -> Dict:
        return dict(self.params)

    @property
    def options(self) -> CodegenOptions:
        return CodegenOptions(backend=self.backend, tile=self.tile)

    def request(self) -> CompileRequest:
        return CompileRequest(
            source_of(self.name), self.env, self.options,
            kind="definition" if self.name == "wavefront_f" else "program",
            **dict(self.flags))

    @property
    def label(self) -> str:
        flags = dict(self.flags)
        extra = "+".join(k for k in ("dist", "ooc") if flags.get(k))
        return f"{self.name}[{extra}]" if extra else self.name

    @property
    def sweeps(self) -> Optional[int]:
        """The fixed sweep count, ``None`` for ``converge``."""
        env = self.env
        return env.get("k", None if "tol" in env else 1)


class Workload:
    """Shared bookkeeping of one run; subclasses define the rounds."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.mismatches: List[str] = []
        self.round_s: List[float] = []
        self.compile_cold_s: List[float] = []
        self.compile_warm_s: List[float] = []
        self.ops = 0
        self.cells = 0              # cell updates done by the timed runs
        self.run_s = 0.0            # time those runs took
        self.round_sweeps: List[int] = []
        self.ratios: Dict[str, List[float]] = {}
        self.oracle_s = 0.0
        self.tracer = None

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def oracle_check(self, program: Program) -> None:
        """Compile ``program`` small; compare it with the lazy oracle."""
        params = ORACLE_PARAMS[program.name]
        source = source_of(program.name)
        if program.name == "wavefront_f":
            compiled = repro.compile(source, params=params,
                                     options=program.options)
        else:
            compiled = repro.compile_program(
                source, params=params, options=program.options,
                **dict(program.flags))
        got = compiled(dict(params)).to_list()
        started = perf_counter()
        if program.name == "wavefront_f":
            want = repro.evaluate(source, bindings=params, deep=False)
        else:
            want = repro.run_program(source, bindings=params, deep=False)
        self.oracle_s += perf_counter() - started
        if got != want.to_list():
            self.mismatches.append(
                f"{program.label}: differs from the lazy oracle at "
                f"{params}")

    def ratio_medians(self) -> Dict[str, float]:
        """Median compiled/hand-written time ratio of each program."""
        return {name: statistics.median(r)
                for name, r in sorted(self.ratios.items())}

    def vs_handwritten(self) -> float:
        """Geometric mean over programs of the median ratios."""
        logs = [math.log(r) for r in self.ratio_medians().values()]
        return math.exp(sum(logs) / len(logs))

    def set_op(self, op_id, backend: str = "") -> None:
        if self.tracer is not None:
            self.tracer.set_op(op_id, backend)

    def trace_extras(self) -> Dict[str, float]:
        """Per-layer figures only a traced run measures."""
        return {}

    def close(self) -> None:
        """Release what ``setup`` started."""

    def between_rounds(self, index: int) -> None:
        """Untimed work after round ``index`` of an untraced run."""


class SolveWorkload(Workload):
    """A closed loop of one caller running programs compiled in setup.

    A round runs every program once, each right before or after the
    hand-written C loop of the same program (the order is drawn from
    the seed), so ``vs_handwritten`` compares times taken under the
    same conditions.
    """

    programs: List[Program] = []

    def setup(self, scratch) -> None:
        clear_kernel_memo()
        self.scratch = scratch.path
        self.disk_dir = scratch.cache
        service = CompileService(disk_dir=self.disk_dir)
        for program in self.programs:
            started = perf_counter()
            service.submit(program.request()).value()
            self.compile_cold_s.append(perf_counter() - started)
        self.hand = HandWritten(scratch.path / "handwritten")

    def between_rounds(self, index: int) -> None:
        """A disk-tier reload of every program, then one cold compile.

        Set-up compiles all fall in the first seconds of a run; these
        spread ``compile_warm_s`` and ``compile_cold_s`` samples over
        the whole run, as the round times are.  The rounds' programs
        hold their loaded kernels, so clearing the kernel memo and
        switching the native cache does not touch them.
        """
        self.reload()
        program = self.programs[index % len(self.programs)]
        path = self.scratch / f"probe-{index}"
        native = os.environ["REPRO_NATIVE_CACHE_DIR"]
        os.environ["REPRO_NATIVE_CACHE_DIR"] = str(path / "native")
        try:
            clear_kernel_memo()
            service = CompileService(disk_dir=path / "cache")
            started = perf_counter()
            result = service.submit(program.request())
            result.value()
            self.compile_cold_s.append(perf_counter() - started)
        finally:
            os.environ["REPRO_NATIVE_CACHE_DIR"] = native
            shutil.rmtree(path, ignore_errors=True)

    def reload(self) -> list:
        """Load every program in a new session on the set-up disk tier."""
        clear_kernel_memo()
        service = CompileService(disk_dir=self.disk_dir)
        loaded = []
        for program in self.programs:
            started = perf_counter()
            result = service.submit(program.request())
            self.compile_warm_s.append(perf_counter() - started)
            if result.tier != "disk":
                self.mismatches.append(
                    f"{program.label}: reload served by {result.tier!r}, "
                    "not the disk tier")
            loaded.append(result.value())
        return loaded

    def check_setup(self) -> None:
        """Reload in new sessions, then check sweeps and the oracle.

        The rounds run the programs the last reload loaded.
        """
        for _ in range(WARM_SESSIONS):
            self.compiled = self.reload()
        self.expected = {}
        self.sweeps = {}
        for program, compiled in zip(self.programs, self.compiled):
            cells, ref_sweeps = self.hand.run(program.name, program.env)
            self.expected[program] = cells
            got = self.count_sweeps(program, compiled)
            if got != ref_sweeps:
                self.mismatches.append(
                    f"{program.label}: {got} sweeps, the hand-written "
                    f"loop took {ref_sweeps}")
            self.sweeps[program] = got
            self.oracle_check(program)

    @staticmethod
    def count_sweeps(program: Program, compiled) -> int:
        """``k``, or the step calls of one ``converge`` run, counted."""
        if program.sweeps is not None:
            return program.sweeps
        (step,) = [s for s in compiled.steps if s.kind == "iterate"]
        kernel = step.iterate.step
        calls = []

        def counting(env):
            calls.append(1)
            return kernel(env)

        step.iterate.step = counting
        try:
            compiled(program.env)
        finally:
            step.iterate.step = kernel
        return len(calls)

    def time_hand(self, program: Program) -> float:
        started = perf_counter()
        self.hand.run(program.name, program.env)
        return perf_counter() - started

    def round(self, rng, index: int) -> float:
        order = list(range(len(self.programs)))
        rng.shuffle(order)
        total = 0.0
        outputs = []
        for slot, position in enumerate(order):
            program = self.programs[position]
            compiled = self.compiled[position]
            hand_first = rng.random() < 0.5
            hand_s = self.time_hand(program) if hand_first else 0.0
            self.set_op(f"r{index}.{slot}.{program.label}", "c")
            self.attempted += 1
            started = perf_counter()
            try:
                result = compiled(program.env)
            except Exception as exc:  # counted; the round goes on
                result = exc
            elapsed = perf_counter() - started
            self.set_op(None)
            if not hand_first:
                hand_s = self.time_hand(program)
            if isinstance(result, Exception):
                self.fail(program.label, result)
                continue
            total += elapsed
            self.ops += 1
            self.run_s += elapsed
            self.cells += cell_updates(program.name, program.env,
                                       self.sweeps[program])
            self.ratios.setdefault(program.label, []).append(
                elapsed / hand_s)
            outputs.append((program, result))
        for program, result in outputs:
            if not same_bits(result.cells, self.expected[program]):
                self.mismatches.append(
                    f"round {index}: {program.label} differs from the "
                    "hand-written loop")
        self.round_s.append(total)
        self.round_sweeps.append(sum(self.sweeps[p] for p, _ in outputs))
        return total


class SolveNative(SolveWorkload):
    """Kernels and the serial driver do the work; compiles are in setup."""

    name = "solve-native"
    programs = [
        Program.of("wavefront_f", {"n": 1024}),
        Program.of("program_jacobi_steps", {"m": 512, "k": 200}),
        Program.of("program_sor", {"m": 512, "k": 200, "omega": 1.25}),
        Program.of("program_jacobi", {"m": 64, "tol": 1e-4}),
        Program.of("program_stencil_chain", {"m": 1024}),
    ]


class Partitioned(SolveWorkload):
    """The dist (fork pool, shared-memory halos) and out-of-core drivers.

    Every program is requested with ``backend="c"``; the hand-written
    reference is the serial C loop, so ``vs_handwritten`` is how far
    the partitioned drivers are from one plain loop.
    """

    name = "partitioned"
    programs = [
        Program.of("program_jacobi_steps", {"m": 512, "k": 50},
                   dist=True, workers=2),
        Program.of("program_sor", {"m": 128, "k": 20, "omega": 1.25},
                   dist=True, workers=2),
        Program.of("program_jacobi_steps", {"m": 192, "k": 20}, tile=32,
                   ooc=True),
    ]

    def setup(self, scratch) -> None:
        from repro.dist.pool import get_pool, shutdown_pools

        shutdown_pools()
        super().setup(scratch)
        get_pool(2)

    def trace_extras(self) -> Dict[str, float]:
        """Partitioned over serial C time, per driver (median of 3)."""
        out = {}
        for key, program in (("dist.vs_serial", self.programs[0]),
                             ("dist.vs_serial", self.programs[1]),
                             ("ooc.vs_inmemory", self.programs[2])):
            serial = repro.compile_program(
                source_of(program.name), params=program.env, options=C)
            position = self.programs.index(program)
            ratios = []
            for _ in range(3):
                started = perf_counter()
                self.compiled[position](program.env)
                split = perf_counter() - started
                started = perf_counter()
                serial(program.env)
                ratios.append(split / (perf_counter() - started))
            out.setdefault(key, []).append(statistics.median(ratios))
        return {key: math.exp(sum(map(math.log, values)) / len(values))
                for key, values in out.items()}


#: ``param-sweep`` programs and their parameters at mesh size ``s``.
SWEEP = {
    "program_jacobi_steps": lambda s: {"m": s, "k": 5},
    "program_sor": lambda s: {"m": s, "k": 5, "omega": 1.25},
    "program_stencil_chain": lambda s: {"m": s},
    "program_pipeline": lambda s: {"n": s},
    "program_swap": lambda s: {"m": s, "n": s, "r": 2, "s": s - 1},
    "wavefront_f": lambda s: {"n": s},
}
SIZE_LO, SIZE_HI = 32, 160
#: Mesh sizes fall in this many equal strata of [SIZE_LO, SIZE_HI].
STRATA = 4
CLIENTS = 2


class ParamSweep(Workload):
    """A user's parameter study through the compile service.

    A round is one *session*: a fresh ``CompileService`` on the same
    disk tier plus ``clear_kernel_memo()``.  Two client threads run a
    closed loop of compile-and-run requests.  Phase A holds four new
    (program, size, backend) triples, two per backend.  Phase B
    repeats the first ``c`` and ``python`` triples of the previous
    session (disk-tier hits) and this session's second triple of each
    backend (memory hits), so no hit waits on a cold compile's GIL
    share.  Keys are distinct within a phase, so no request coalesces
    and the hit counts repeat exactly per seed.

    New triples come from one shuffled deck per backend holding every
    (program, size stratum) pair, so each run of 12 sessions requests
    every pair once, whatever the seed; the size is drawn within its
    stratum.
    """

    name = "param-sweep"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.references: Dict[tuple, object] = {}

    def setup(self, scratch) -> None:
        self.close()
        clear_kernel_memo()
        self.disk_dir = scratch.cache
        self.hand = HandWritten(scratch.path / "handwritten")
        self.pool = ThreadPoolExecutor(max_workers=CLIENTS)
        self.seen = set()
        self.decks = {"c": [], "python": []}
        # Priming compiles, drawn apart from the decks, fill the disk
        # tier, so the first timed session has triples to hit.
        self.previous = self.new_triples(random.Random(
            f"param-sweep:{self.seed}:prime"), decks={})
        service = CompileService(disk_dir=self.disk_dir)
        for result in self.pool.map(
                lambda p: service.submit(p.request()), self.previous):
            result.value()
        self.rng = random.Random(f"param-sweep:{self.seed}")

    def close(self) -> None:
        if getattr(self, "pool", None) is not None:
            self.pool.shutdown(wait=True)
            self.pool = None

    def check_setup(self) -> None:
        for name in SWEEP:
            for backend in ("c", "python"):
                self.oracle_check(Program.of(name, ORACLE_PARAMS[name],
                                             backend))

    def new_triples(self, rng, decks=None) -> List[Program]:
        """Two new triples per backend: ``[c, c, python, python]``."""
        decks = self.decks if decks is None else decks
        width = (SIZE_HI - SIZE_LO + 1) // STRATA
        out = []
        for backend in ("c", "c", "python", "python"):
            deck = decks.setdefault(backend, [])
            if not deck:
                deck.extend((name, stratum) for name in sorted(SWEEP)
                            for stratum in range(STRATA))
                rng.shuffle(deck)
            name, stratum = deck.pop()
            while True:
                size = SIZE_LO + stratum * width + rng.randrange(width)
                program = Program.of(name, SWEEP[name](size), backend)
                if program not in self.seen:
                    break
            self.seen.add(program)
            out.append(program)
        return out

    def round(self, rng, index: int) -> float:
        cold = self.new_triples(self.rng)
        phase_a = [(p, "miss") for p in cold]
        phase_b = [(self.previous[0], "disk"), (self.previous[2], "disk"),
                   (cold[1], "memory"), (cold[3], "memory")]
        self.rng.shuffle(phase_a)
        self.rng.shuffle(phase_b)
        started = perf_counter()
        clear_kernel_memo()
        service = CompileService(disk_dir=self.disk_dir)
        results = []
        for phase in (phase_a, phase_b):
            ops = [(f"s{index}.{len(results) + i}", program, tier)
                   for i, (program, tier) in enumerate(phase)]
            results.extend(self.pool.map(
                lambda op: self.request(service, *op), ops))
        elapsed = perf_counter() - started
        self.previous = cold
        self.round_s.append(elapsed)
        self.check(rng, results)
        return elapsed

    def request(self, service, op_id, program: Program, expected: str):
        """One compile-and-run; returns what the checks need."""
        self.set_op(op_id, program.backend)
        started = perf_counter()
        try:
            result = service.submit(program.request())
            compiled = result.value()
            compiled_s = perf_counter() - started
            ran = perf_counter()
            output = compiled(program.env)
            run_s = perf_counter() - ran
        except Exception as exc:  # counted; the session goes on
            self.set_op(None)
            return (program, expected, exc, None, 0.0, 0.0, None)
        self.set_op(None)
        tier = result.tier or "miss"
        return (program, expected, tier, output, compiled_s, run_s, compiled)

    def check(self, rng, results) -> None:
        for program, expected, tier, output, compiled_s, run_s, compiled \
                in results:
            self.attempted += 1
            if isinstance(tier, Exception):
                self.fail(program.label, tier)
                continue
            self.ops += 1
            if tier != expected:
                self.mismatches.append(
                    f"{program}: served by {tier}, expected {expected}")
            # c only: python compiles cost a tenth as much, and a
            # median over an even mix of the two would sit in the gap.
            if program.backend == "c" and tier == "miss":
                self.compile_cold_s.append(compiled_s)
            elif program.backend == "c" and tier == "disk":
                self.compile_warm_s.append(compiled_s)
            sweeps = program.sweeps
            self.cells += cell_updates(program.name, program.env, sweeps)
            self.run_s += run_s
            key = (program.name, program.params)
            if key not in self.references:
                self.references[key], _ = self.hand.run(program.name,
                                                        program.env)
            reference = self.references[key]
            if not same_bits(output.cells, reference):
                self.mismatches.append(
                    f"{program}: differs from the hand-written reference")
            if program.backend == "c" and program.name != "program_swap":
                self.ratios.setdefault(program.name, []).append(
                    self.interleaved_ratio(rng, program, compiled))
        self.round_sweeps.append(sum(
            p.sweeps for p, _e, t, *_ in results
            if not isinstance(t, Exception)))

    def interleaved_ratio(self, rng, program: Program, compiled) -> float:
        """Compiled over hand-written run time, one thread, seeded order."""
        times = {}
        for side in rng.sample(["compiled", "hand"], 2):
            started = perf_counter()
            if side == "compiled":
                compiled(program.env)
            else:
                self.hand.run(program.name, program.env)
            times[side] = perf_counter() - started
        return times["compiled"] / times["hand"]


WORKLOADS = {w.name: w for w in (SolveNative, ParamSweep, Partitioned)}
