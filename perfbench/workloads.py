"""The benchmark's three workloads, their correctness gates and ledgers.

Each workload is a closed loop with one client.  It builds its inputs from
the benchmark seed before the timed window, runs ops until ``seconds`` have
passed and at least ``min_ops`` ops have completed, then checks every
answer outside the window.  An op's answer must match the expectation
computed before the window and the first answer seen for the same input;
a non-200 response, an errored item or a wrong answer counts as failed.

A workload's *cycle* is its list of distinct inputs; the loop walks the
cycle in order and wraps around.  The answers digest covers the first
``digest_inputs`` inputs, and every window completes at least that many
ops, so two runs with the same seed print the same digest however many ops
each fitted into its window.  Inputs are balanced across the horizon (or
family and policy) strata, so seeds differ in which instances they draw,
not in how much of each kind of work they contain.

Every op is bracketed by the speed probe :func:`reference_ns`, a fixed
loop of byte reads that never touches the program.  The host's speed
drifts by a fifth or more from one minute to the next, and the probe drifts
with it, so each op's time is also recorded *scaled*: multiplied by
``REF_NS / (mean of the probes on either side of it)``, which is the time
the op would take on a machine where the probe takes exactly ``REF_NS``.
A change to the program moves its scaled times as it moves its raw ones.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ledger import Tracer, by_name, layer_self_ns

_now = time.perf_counter_ns

#: Fewest ops in one timed window, so that ten samples lie beyond op_p90_ms.
MIN_OPS = 100
#: Inputs the answers digest covers (and fewest ops in a traced window).
DIGEST_INPUTS = 50

#: The speed probe's time on the reference machine the scaled figures are
#: expressed in (about its median on the 2-vCPU machine of the baseline).
REF_NS = 3_000_000
#: The probe's buffer: larger than the caches, as the program's working set
#: is, and filled once from a fixed seed, so every run probes the same.
PROBE_BYTES = 64 << 20
_PROBE_READS = 10_000
_probe: List[Any] = []  # [buffer, offsets], filled on first use


def reference_ns() -> int:
    """Wall time of the speed probe: byte reads at random offsets of a buffer.

    On a busy host the program's ops slow down more than a loop that stays
    in the CPU's caches; a probe that misses the caches as they do tracks
    them.  It allocates no containers, so it never runs the cyclic collector.
    """
    if not _probe:
        rng = random.Random(0)
        buffer = bytearray(PROBE_BYTES)
        chunk = 1 << 20  # filled a chunk at a time: no 64-MB temporary
        for start in range(0, PROBE_BYTES, chunk):
            buffer[start:start + chunk] = rng.randbytes(chunk)
        _probe.append(buffer)
        _probe.append([rng.randrange(PROBE_BYTES) for _ in range(_PROBE_READS)])
    buffer, offsets = _probe
    t0 = _now()
    total = 0
    for offset in offsets:
        total += buffer[offset]
    return _now() - t0


class Phase:
    """What one timed window measured."""

    def __init__(self, traced: bool = False) -> None:
        from repro.obs import Registry

        #: The program's own obs counters and spans, collected when traced.
        self.registry = Registry() if traced else None
        self.latencies_ns: List[int] = []
        #: Each op's time scaled to the reference machine (see the module doc).
        self.scaled_ns: List[float] = []
        self.scales: List[float] = []
        #: The probe that ended the previous op (the next op's first bracket).
        self.probe_ns = 0
        self.wall_ns = 0
        self.attempted = 0
        self.failed = 0
        self.records: List[Tuple] = []
        self.extra: Dict[str, Any] = {}

    def add(self, op_ns: int, probe_before: int, probe_after: int) -> None:
        """Record one op's time, bracketed by two speed probes."""
        scale = 2 * REF_NS / (probe_before + probe_after)
        self.latencies_ns.append(op_ns)
        self.scaled_ns.append(op_ns * scale)
        self.scales.append(scale)

    def timed(self, op_ns: int) -> None:
        """Record an op that ran in this process, then probe after it."""
        probe = reference_ns()
        self.add(op_ns, self.probe_ns, probe)
        self.probe_ns = probe


def _balanced(rng: random.Random, strata: List[Any], count: int) -> List[Any]:
    """``count`` draws that use every stratum equally often per block."""
    out: List[Any] = []
    while len(out) < count:
        block = list(strata)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


@contextmanager
def _obs_into(registry) -> Iterator[None]:
    """Feed the program's obs stream into ``registry`` (if any) for a block.

    The sink is attached process-wide: a context-local ``obs.capture`` would
    miss the serve app's compute thread.
    """
    from repro import obs

    if registry is None:
        yield
        return
    obs.attach(registry)
    try:
        yield
    finally:
        obs.detach(registry)


def _sum_spans(registry, suffix: str) -> Tuple[int, int]:
    """``(count, total_ns)`` of the obs span paths ending in ``suffix``."""
    count = total = 0
    for path, stat in registry.spans.items():
        if path == suffix or path.endswith("/" + suffix):
            count += stat.count
            total += stat.total_ns
    return count, total


class Workload:
    name = ""
    sizes: Dict[str, int] = {}
    tiny: Dict[str, int] = {}

    def __init__(self, seed: int, tiny: bool, inject: bool) -> None:
        self.seed = seed
        self.size = self.tiny if tiny else self.sizes
        self.min_ops = 8 if tiny else MIN_OPS
        self.digest_inputs = 8 if tiny else DIGEST_INPUTS
        self.inject = inject
        self.answers: Dict[Any, Any] = {}

    # -- shared loop and gate ---------------------------------------------

    #: Ops run before the window (and not counted) so that lazy set-up is done.
    warmup_ops = 0

    def loop(self, seconds: float, step, tracer: Tracer) -> Phase:
        warm = Phase(tracer.enabled)
        warm.probe_ns = reference_ns()
        k = 0
        while k < self.warmup_ops:
            k = step(warm, k)
        tracer.drain()
        phase = Phase(tracer.enabled)
        phase.probe_ns = reference_ns()
        start = _now()
        deadline = start + int(seconds * 1e9)
        k = 0
        while phase.attempted < self.min_ops or _now() < deadline:
            k = step(phase, k)
        phase.wall_ns = _now() - start
        phase.records = tracer.drain()
        return phase

    def settle(self, phase: Phase, key: Any, answer: Any, ok: bool) -> None:
        """Count one op's verdict; the answer must repeat on every cycle."""
        first = self.answers.setdefault(key, answer)
        if not ok or answer != first:
            phase.failed += 1

    def digest(self) -> str:
        """Hash of the answers to the first ``digest_inputs`` distinct inputs.

        Every window completes at least that many ops, in cycle order, so
        these inputs are the same in every run with the same seed.
        """
        first = list(self.answers.items())[:self.digest_inputs]
        blob = json.dumps(first, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    # -- per-workload ------------------------------------------------------

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, tracer: Tracer) -> Phase:
        raise NotImplementedError

    def ledger(self, plain: Phase, traced: Phase) -> Dict[str, float]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    @staticmethod
    def relabel(name: str, parent: str) -> str:
        """The ledger name of a span called ``name`` under ``parent``."""
        return name


# ---------------------------------------------------------------------------
# serve-certify


class ServeCertify(Workload):
    """``POST /v1/optimum`` cold, then ``POST /v1/certify`` at OPT+1 warm."""

    name = "serve-certify"
    warmup_ops = 2
    sizes = {"n": 600, "instances": 150, "recheck_every": 8}
    tiny = {"n": 40, "instances": 4, "recheck_every": 2}

    def describe(self) -> str:
        return (f"{self.size['instances']} uniform instances, n={self.size['n']}, "
                "2 requests each (optimum cold, certify at OPT+1 warm)")

    def prepare(self) -> None:
        from repro.generators.random_instances import uniform_random_instance
        from repro.model.io import instance_to_dict
        from repro.offline.optimum import migratory_optimum

        rng = random.Random(self.seed)
        n = self.size["n"]
        self.expected: List[int] = []
        self.requests: List[Tuple[str, bytes, int]] = []  # (path, body, m)
        for i, horizon in enumerate(_balanced(rng, [n, 2 * n, 4 * n], self.size["instances"])):
            inst = uniform_random_instance(n, horizon=horizon, seed=rng.getrandbits(62))
            # The reference answer: the interpreted Dinic backend.  Only bytes
            # are kept, so no warm instance outlives this loop.
            opt = migratory_optimum(inst, backend="dinic")
            self.expected.append(opt + 1 if self.inject and i == 0 else opt)
            payload = instance_to_dict(inst)
            self.requests.append(
                ("/v1/optimum", json.dumps({"instance": payload}).encode(), opt))
            self.requests.append(
                ("/v1/certify", json.dumps({"instance": payload, "m": opt + 1}).encode(),
                 opt + 1))

    def _hook(self, tracer: Tracer) -> None:
        import importlib

        from repro.offline.dinic import FeasibilityNetwork
        from repro.offline.feascache import FeasibilityCache

        app = importlib.import_module("repro.serve.app")
        certify_mod = importlib.import_module("repro.verify.certify")
        verify_pkg = importlib.import_module("repro.verify")
        tracer.hook(app, "instance_from_dict", "model.parse")
        tracer.hook(certify_mod, "migratory_optimum", "offline.search")
        tracer.hook(FeasibilityCache, "tables", "offline.tables")
        tracer.hook(FeasibilityNetwork, "__init__", "offline.topology")
        tracer.hook(FeasibilityCache, "solved_network", "offline.solve")
        tracer.hook(FeasibilityNetwork, "work_by_job", "offline.work")
        tracer.hook(FeasibilityNetwork, "min_cut", "offline.cut")
        tracer.hook(certify_mod, "schedule_from_work", "offline.wrap")
        tracer.hook(certify_mod, "check_certificate", "verify.check")
        # certified_optimum calls the module global; /v1/certify imports the
        # package attribute: both are the same function.
        tracer.hook(certify_mod, "certify", "verify.certify")
        tracer.hook(verify_pkg, "certify", "verify.certify")

    def run(self, seconds: float, tracer: Tracer) -> Phase:
        from repro.serve.app import Request, ServeApp, encode_body

        if tracer.enabled:
            self._hook(tracer)
        apps: List[Any] = []
        cycle = len(self.requests)

        def step(phase: Phase, k: int) -> int:
            index = k % cycle
            if index == 0:  # a fresh app per cycle: every optimum runs cold
                if apps:
                    apps.pop().close()
                apps.append(ServeApp(compute_workers=1, request_timeout=600.0))
            path, body, _m = self.requests[index]
            request = Request("POST", path, body)
            tracer.op = k
            with _obs_into(phase.registry):
                t0 = _now()
                with tracer.span("op"):
                    with tracer.span("serve.handle"):
                        response = apps[-1].handle(request)
                    with tracer.span("serve.encode"):
                        payload, _ctype = encode_body(response)
                op_ns = _now() - t0
            phase.timed(op_ns)
            phase.attempted += 1
            phase.extra.setdefault("bodies", []).append((index, response.status, payload))
            return k + 1

        try:
            phase = self.loop(seconds, step, tracer)
        finally:
            if apps:
                apps.pop().close()
            tracer.unhook()
        self._gate(phase, phase.extra.pop("bodies"))
        return phase

    def _gate(self, phase: Phase, bodies: List[Tuple[int, int, bytes]]) -> None:
        from repro.model.io import instance_from_dict
        from repro.verify import certificate_from_dict, check_certificate

        segments = certs = size = 0
        rechecked = set()
        for index, status, body in bodies:
            size += len(body)
            i = index // 2
            path, _body, m = self.requests[index]
            if status != 200:
                self.settle(phase, index, ("status", status), False)
                continue
            got = json.loads(body)
            if path == "/v1/optimum":
                opt = got.get("optimum")
                witnesses = [got.get("feasible"), got.get("infeasible")]
                ok = (got.get("satisfiable") is True and opt == self.expected[i]
                      and _cert(witnesses[0]) == ("feasible", opt)
                      and (opt == 0 or _cert(witnesses[1]) == ("infeasible", opt - 1)))
                answer = ("optimum", opt)
            else:
                witnesses = [got]
                ok = _cert(got) == ("feasible", m)
                answer = ("certify",) + _cert(got)
            for cert in witnesses:
                if _cert(cert)[0] == "feasible":
                    segments += len(cert["schedule"]["segments"])
                    certs += 1
            if ok and i % self.size["recheck_every"] == 0 and index not in rechecked:
                rechecked.add(index)
                instance = instance_from_dict(json.loads(self.requests[index][1])["instance"])
                ok = all(check_certificate(instance, certificate_from_dict(c)).ok
                         for c in witnesses if c is not None)
            self.settle(phase, index, answer, ok)
        phase.extra.update(segments=segments, feasible_certs=certs, body_bytes=size,
                           rechecked=len(rechecked))


    @staticmethod
    def relabel(name: str, parent: str) -> str:
        """Flow solves inside ``certify`` belong to witness extraction."""
        if name in ("offline.solve", "offline.work", "offline.wrap", "offline.cut"):
            return "offline.search" if parent == "offline.search" else "offline.extract"
        return name

    def ledger(self, plain: Phase, traced: Phase) -> Dict[str, float]:
        ops = len(traced.latencies_ns)
        spans = by_name(traced.records)
        certs = spans.get("verify.certify", {}).get("count", 0)
        registry = traced.registry

        def total(name: str) -> int:
            return spans.get(name, {}).get("total_ns", 0)

        extract = layer_self_ns(traced.records, self.relabel).get("offline.extract", 0)
        kernel_count, kernel_ns = _sum_spans(registry, "dinic.solve")
        out = {
            "model.parse_ms": total("model.parse") / ops / 1e6,
            "offline.tables_ms": total("offline.tables") / ops / 1e6,
            "offline.topology_ms": total("offline.topology") / ops / 1e6,
            "offline.search_ms": (total("offline.search") - _nested(
                traced.records, "offline.search", ("offline.tables", "offline.topology"))
            ) / ops / 1e6,
            "offline.kernel_ms": kernel_ns / ops / 1e6,
            "offline.probes": registry.counters.get("search.probes", 0) / ops,
            "offline.aug_paths": registry.counters.get("dinic.aug_paths", 0) / ops,
            "offline.network_edges": registry.counters.get("network.edges", 0) / ops,
            "offline.extract_ms": extract / max(certs, 1) / 1e6,
            "offline.witness_segments": (
                traced.extra["segments"] / max(traced.extra["feasible_certs"], 1)),
            "verify.check_ms": total("verify.check") / max(certs, 1) / 1e6,
            "verify.certs_checked": spans.get("verify.check", {}).get("count", 0) / ops,
            "serve.handle_ms": total("serve.handle") / ops / 1e6,
            "serve.encode_ms": total("serve.encode") / ops / 1e6,
            "serve.response_kb": traced.extra["body_bytes"] / ops / 1024,
        }
        return out


def _cert(cert: Any) -> Tuple[Any, Any]:
    """``(kind, machines)`` of a certificate in a response body."""
    if not isinstance(cert, dict):
        return (None, None)
    return (cert.get("kind"), cert.get("machines"))


def _nested(records: List[Tuple], outer: str, inner: Tuple[str, ...]) -> int:
    """Total ns of ``inner`` spans whose direct parent is an ``outer`` span."""
    outer_ids = {sid for _op, sid, _p, name, *_ in records if name == outer}
    return sum(t1 - t0 for _op, _sid, parent, name, t0, t1, _s in records
               if name in inner and parent in outer_ids)


# ---------------------------------------------------------------------------
# ratio-sweep

#: The registered name of the benchmark's wrapper task.
RATIO_TASK = "perfbench_ratio_sample"

#: The tracer the wrapper task records into.  Pool workers are forked from
#: the benchmark process, so they inherit it together with the task registry.
_worker_tracer: Optional[Tracer] = None


def timed_ratio_sample(instance, **kwargs) -> Dict[str, Any]:
    """``task_ratio_sample`` unchanged, timed; returns its spans with it."""
    from repro.runner.tasks import task_ratio_sample

    tracer = _worker_tracer
    before = tracer.drain()  # this item's instance materialization, if any
    probe_before = reference_ns()
    t0 = _now()
    with tracer.span("op"):
        value = task_ratio_sample(instance, **kwargs)
    t1 = _now()
    return {"value": value, "t0": t0, "t1": t1, "spans": before + tracer.drain(),
            "probes": (probe_before, reference_ns())}


class RatioSweep(Workload):
    """``run_sweep`` of ratio_sample items on a 2-worker process pool."""

    name = "ratio-sweep"
    sizes = {"n": 200, "seeds_per_batch": 6, "batches": 10, "workers": 2}
    tiny = {"n": 30, "seeds_per_batch": 1, "batches": 2, "workers": 2}
    policies = ("edf", "firstfit")
    families = ("uniform", "agreeable")

    def describe(self) -> str:
        s = self.size
        per = len(self.families) * s["seeds_per_batch"] * len(self.policies)
        return (f"sweeps of {per} items (families {'/'.join(self.families)} x "
                f"policies {'/'.join(self.policies)}), n={s['n']}, {s['workers']} workers, "
                f"{s['batches']} distinct sweeps per cycle")

    def prepare(self) -> None:
        from repro.runner import SweepPlan, register_task
        from repro.runner.plan import InstanceSpec, split_seed

        register_task(RATIO_TASK, timed_ratio_sample)
        s = self.size
        self.plans = []
        for b in range(s["batches"]):
            entries = []
            for family in self.families:
                for j in range(s["seeds_per_batch"]):
                    spec = InstanceSpec(family, s["n"],
                                        split_seed(self.seed, b * s["seeds_per_batch"] + j))
                    for policy in self.policies:
                        entries.append((RATIO_TASK, spec,
                                        {"policy": policy, "family": family}))
            self.plans.append(SweepPlan.build(entries))

    def _expect_ok(self, b: int, item, m: int, k: int) -> bool:
        if self.inject and b == 0 and item.index == 0:
            return m > k  # a wrong expectation: no policy beats OPT
        return 1 <= m <= k

    def run(self, seconds: float, tracer: Tracer) -> Phase:
        global _worker_tracer
        import importlib

        from repro.runner import run_sweep
        from repro.runner.plan import FAMILIES

        _worker_tracer = tracer
        if tracer.enabled:
            tracer.hook(importlib.import_module("repro.online.engine"),
                        "min_machines", "online.min_machines")
            tracer.hook(importlib.import_module("repro.offline.optimum"),
                        "migratory_optimum", "offline.search")
            for family in self.families:
                tracer.hook_item(FAMILIES, family, "runner.materialize")
        def step(phase: Phase, k: int) -> int:
            b = k % len(self.plans)
            t_entry = _now()
            report = run_sweep(self.plans[b], n_jobs=self.size["workers"])
            t_exit = _now()
            phase.extra.setdefault("sweeps", []).append((b, t_entry, t_exit, report))
            for result in report.results:
                phase.attempted += 1
                if result.ok:
                    phase.add(result.value["t1"] - result.value["t0"],
                              *result.value["probes"])
            return k + 1

        try:
            phase = self.loop(seconds, step, tracer)
        finally:
            tracer.unhook()
        self._gate(phase, phase.extra.pop("sweeps"))
        return phase

    def _gate(self, phase: Phase, sweeps: List[Tuple[int, int, int, Any]]) -> None:
        """Check every item; ``sweeps`` holds ``(batch, entry ns, exit ns, report)``."""
        busy = wall = retries = 0
        starts: List[int] = []
        n_sim = sim_ns = steps = probes = aug = edges = kernel_ns = 0
        records: List[Tuple] = []
        for run_no, (b, t_entry, t_exit, report) in enumerate(sweeps):
            plan = self.plans[b]
            wall += t_exit - t_entry
            starts.append(min((r.value["t0"] for r in report.results if r.ok),
                              default=t_exit) - t_entry)
            for item, result in zip(plan, report.results):
                retries += result.attempts - 1
                key = (b, item.index)
                if not result.ok:
                    self.settle(phase, key, ("status", result.status), False)
                    continue
                busy += result.value["t1"] - result.value["t0"]
                value = result.value["value"]
                m, k = value.get("m"), value.get("k")
                ok = (isinstance(m, int) and isinstance(k, int)
                      and self._expect_ok(b, item, m, k)
                      and value.get("ratio") == Fraction(k, m))
                self.settle(phase, key, (item.spec.family, item.spec.seed,
                                         value.get("policy"), m, k), ok)
                op = (run_no, item.index)
                for _op, sid, parent, name, t0, t1, self_ns in result.value["spans"]:
                    records.append((op, sid, parent, name, t0, t1, self_ns))
            registry = report.registry
            count, total = _sum_spans(registry, "engine.simulate")
            n_sim += count
            sim_ns += total
            steps += registry.counters.get("engine.steps", 0)
            probes += registry.counters.get("search.probes", 0)
            aug += registry.counters.get("dinic.aug_paths", 0)
            edges += registry.counters.get("network.edges", 0)
            kernel_ns += _sum_spans(registry, "dinic.solve")[1]
        phase.records = records
        phase.extra.update(
            busy_ns=busy, sweep_wall_ns=wall, retries=retries,
            worker_start_ns=sorted(starts)[len(starts) // 2],
            simulate_calls=n_sim, simulate_ns=sim_ns, engine_steps=steps,
            probes=probes, aug_paths=aug, network_edges=edges, kernel_ns=kernel_ns)

    def ledger(self, plain: Phase, traced: Phase) -> Dict[str, float]:
        items = len(traced.latencies_ns)
        spans = by_name(traced.records)
        x = traced.extra

        def total(name: str) -> int:
            return spans.get(name, {}).get("total_ns", 0)

        p = plain.extra
        return {
            "offline.search_ms": total("offline.search") / items / 1e6,
            "offline.kernel_ms": x["kernel_ns"] / items / 1e6,
            "offline.probes": x["probes"] / items,
            "offline.aug_paths": x["aug_paths"] / items,
            "offline.network_edges": x["network_edges"] / items,
            "online.min_machines_ms": total("online.min_machines") / items / 1e6,
            "online.simulate_calls": x["simulate_calls"] / items,
            "online.simulate_ms": x["simulate_ns"] / max(x["simulate_calls"], 1) / 1e6,
            "online.trial_yield": 2 * items / max(x["simulate_calls"], 1),
            "online.engine_steps": x["engine_steps"] / items,
            "runner.materialize_ms": total("runner.materialize")
            / max(spans.get("runner.materialize", {}).get("count", 0), 1) / 1e6,
            # Pool figures come from the untimed-hook (plain) window.
            "runner.overhead_frac": 1 - p["busy_ns"] / (self.size["workers"] * p["sweep_wall_ns"]),
            "runner.worker_start_ms": p["worker_start_ns"] / 1e6,
            "runner.retries": p["retries"],
        }


# ---------------------------------------------------------------------------
# opt-large


class OptLarge(Workload):
    """``repro opt`` without the import: JSON bytes → optimum, every search cold."""

    name = "opt-large"
    warmup_ops = 1
    sizes = {"n": 10000, "instances": 3}
    tiny = {"n": 300, "instances": 3}

    def describe(self) -> str:
        return (f"{self.size['instances']} distinct uniform instances, "
                f"n={self.size['n']}, parsed afresh on every op")

    def prepare(self) -> None:
        from repro.generators.random_instances import uniform_random_instance
        from repro.model.io import instance_from_dict, instance_to_dict
        from repro.offline.optimum import migratory_optimum

        rng = random.Random(self.seed)
        n = self.size["n"]
        self.inputs: List[bytes] = []
        self.expected: List[int] = []
        for i, horizon in enumerate(_balanced(rng, [n, 2 * n, 4 * n], self.size["instances"])):
            inst = uniform_random_instance(n, horizon=horizon, seed=rng.getrandbits(62))
            data = json.dumps(instance_to_dict(inst)).encode()
            # The reference answer: the interpreted Dinic backend on its own parse.
            ref = migratory_optimum(instance_from_dict(json.loads(data)), backend="dinic")
            self.inputs.append(data)
            self.expected.append(ref + 1 if self.inject and i == 0 else ref)

    def run(self, seconds: float, tracer: Tracer) -> Phase:
        from repro.model.io import instance_from_dict
        from repro.offline import kernel
        from repro.offline.feascache import cache_for
        from repro.offline.optimum import migratory_optimum

        speed = Fraction(1)
        kernel_name = kernel.best_kernel()

        def plain_op(data: bytes) -> int:
            return migratory_optimum(instance_from_dict(json.loads(data)))

        def traced_op(data: bytes) -> int:
            with tracer.span("model.loads"):
                raw = json.loads(data)
            with tracer.span("model.parse"):
                inst = instance_from_dict(raw)
            with tracer.span("offline.tables"):
                cache = cache_for(inst)
                cache.intervals, cache.base_scale, cache.tables
            with tracer.span("offline.topology"):
                cache.network_for(speed, kernel_name)
            with tracer.span("offline.search"):
                return migratory_optimum(inst)

        op_fn = traced_op if tracer.enabled else plain_op

        def step(phase: Phase, k: int) -> int:
            i = k % len(self.inputs)
            tracer.op = k
            with _obs_into(phase.registry):
                t0 = _now()
                with tracer.span("op"):
                    m = op_fn(self.inputs[i])
                op_ns = _now() - t0
            phase.timed(op_ns)
            phase.attempted += 1
            phase.extra.setdefault("answers", []).append((i, m))
            return k + 1

        phase = self.loop(seconds, step, tracer)
        for i, m in phase.extra.pop("answers"):
            self.settle(phase, i, m, m == self.expected[i])
        return phase

    def ledger(self, plain: Phase, traced: Phase) -> Dict[str, float]:
        ops = len(traced.latencies_ns)
        spans = by_name(traced.records)
        registry = traced.registry

        def total(name: str) -> int:
            return spans.get(name, {}).get("total_ns", 0)

        return {
            "model.parse_ms": total("model.parse") / ops / 1e6,
            "offline.tables_ms": total("offline.tables") / ops / 1e6,
            "offline.topology_ms": total("offline.topology") / ops / 1e6,
            "offline.search_ms": total("offline.search") / ops / 1e6,
            "offline.kernel_ms": _sum_spans(registry, "dinic.solve")[1] / ops / 1e6,
            "offline.probes": registry.counters.get("search.probes", 0) / ops,
            "offline.aug_paths": registry.counters.get("dinic.aug_paths", 0) / ops,
            "offline.network_edges": registry.counters.get("network.edges", 0) / ops,
        }


WORKLOADS = {w.name: w for w in (ServeCertify, RatioSweep, OptLarge)}
