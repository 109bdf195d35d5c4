"""The four workloads: their set-up, timed operations and checks.

Each workload is a class.  ``setup()`` imports what it needs from
``repro`` and builds its instances (timed as ``setup_s``); ``run()``
does one round of operations, each timed by a :class:`Timer` between
reference measurements, and checks every output against the
reference semantics (``refsem``) or a property the method must have.
A failed check marks its operation failed; it never stops the round.
Times are recorded raw; ``round.py`` scales them when the round ends.

Nothing here imports ``repro`` at module level, so that set-up time
includes the program's imports.
"""

import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import refloop
import refsem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "perfbench", "_work")


class Timer:
    """Times operations between reference measurements (see ``refloop``).

    ``timed(fn)`` runs the reference, then ``fn`` after a
    ``gc.collect()``, then the reference again, and returns
    ``(result, raw_seconds)``; when operations follow one another, the
    measurement after one serves as the one before the next.
    """

    def __init__(self):
        #: Every reference time taken, in seconds.
        self.refs = []
        #: Raw seconds of the operations timed since last zeroed.
        self.round_raw = 0.0
        #: When set, each operation is recorded as an ``op`` span.
        self.tracer = None

    def timed(self, fn, *args, **kwargs):
        if not self.refs:
            self.refs.append(refloop.reference_seconds())
        gc.collect()
        started = time.perf_counter()
        if self.tracer is None:
            result = fn(*args, **kwargs)
        else:
            result = self.tracer.call("op", fn, *args, **kwargs)
        raw = time.perf_counter() - started
        self.round_raw += raw
        self.refs.append(refloop.reference_seconds())
        return result, raw


def rss_bytes():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """What one round measured and how many of its operations failed."""

    def __init__(self):
        self.metrics = {}
        self.layers = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.extra = {}

    def operation(self, name, checks=()):
        """Count one operation; it fails if any ``(ok, why)`` check does."""
        self.attempted += 1
        bad = [why for ok, why in checks if not ok]
        if bad:
            self.failed += 1
            self.problems.append(f"{name}: " + "; ".join(bad))

    def add(self, layer, value):
        self.layers[layer] = self.layers.get(layer, 0) + value


def engine_counters(outcome, graph):
    """Add one engine's counters, read through public attributes."""
    stats = graph.stats
    outcome.add("valency.reach_calls", stats.reach_calls)
    outcome.add("valency.csr_rebuilds", stats.csr_rebuilds)
    outcome.add("engine.configurations", len(graph))
    outcome.add("engine.edges", graph.store.edges.total_pairs)
    if graph.kernel is not None:
        outcome.add("kernel.table_hits", graph.kernel.table_hits)
        outcome.add("kernel.fills", graph.kernel.fallback_steps)
        outcome.add("kernel.table_mb", graph.kernel.table_bytes / 1e6)
    outcome.add("packing.buffers", graph.codec.interned_buffers)
    outcome.add("store.arena_mb", stats.arena_bytes / 1e6)
    outcome.add("store.edge_mb", stats.edge_bytes / 1e6)
    outcome.add("reduction.sym_hits", stats.sym_canonical_hits)
    outcome.add("reduction.sym_misses", stats.sym_canonical_misses)
    outcome.add("reduction.por_pruned", stats.por_pruned)


def instrument(tracer):
    """Wrap each layer's public entry points with spans."""
    from repro.adversary import certificates, flp
    from repro.analysis import admissibility
    from repro.core import checkpoint, correctness, reduction, valency
    from repro.core.exploration import GlobalConfigurationGraph
    from repro.serve import client

    for name in ("check_determinism", "check_partial_correctness",
                 "check_validity"):
        tracer.wrap(correctness, name, "correctness.s")
    tracer.wrap(valency.ValencyAnalyzer, "classify_initials",
                "valency.classify_s")
    tracer.wrap(valency.ValencyAnalyzer, "valency", "valency.classify_s")
    tracer.wrap(GlobalConfigurationGraph, "reaching_mask", "valency.reach_s")
    tracer.wrap(GlobalConfigurationGraph, "explore", "engine.explore_s")
    tracer.wrap(GlobalConfigurationGraph, "fingerprint",
                "engine.fingerprint_s")
    tracer.wrap(reduction.SymmetryQuotient, "build", "reduction.build_s")
    tracer.wrap(reduction.SymmetryQuotient, "canonicalize_with_perm",
                "reduction.canonical_s")
    tracer.wrap(checkpoint, "save_checkpoint", "checkpoint.save_s")
    tracer.wrap(checkpoint, "load_checkpoint", "checkpoint.load_s")
    tracer.wrap(flp, "find_lemma2", "adversary.lemma2_s")
    tracer.wrap(flp, "find_bivalent_successor", "adversary.lemma3_s")
    tracer.wrap(flp.FLPAdversary, "build_run", "adversary.build_s")
    tracer.wrap(certificates.NonDecidingRunCertificate, "verify",
                "adversary.verify_s")
    tracer.wrap(admissibility, "analyze_admissibility",
                "analysis.admissibility_s")
    tracer.wrap(client.ServeClient, "query", "serve.request_s")


# -- check ---------------------------------------------------------------------


class Check:
    """The work of ``repro check`` on parity-arbiter/4."""

    PROTOCOL, N = "parity-arbiter", 4

    def __init__(self, seed):
        pass  # the instance is fixed: no input to draw from the seed

    def setup(self):
        from repro import registry
        from repro.core import correctness, valency

        self.correctness, self.valency = correctness, valency
        self.entry = registry.info(self.PROTOCOL)
        self.protocol = self.entry.build(self.N)

    def run(self, timer, outcome):
        protocol, safe = self.protocol, self.entry.safe
        c = self.correctness

        def census():
            analyzer = self.valency.ValencyAnalyzer(protocol)
            return analyzer, analyzer.classify_initials()

        det, t1 = timer.timed(c.check_determinism, protocol)
        pc, t2 = timer.timed(c.check_partial_correctness, protocol)
        validity, t3 = timer.timed(c.check_validity, protocol)
        (analyzer, valencies), t4 = timer.timed(census)
        outcome.metrics["check_s"] = t1 + t2 + t3 + t4

        outcome.operation("determinism", [
            (det.deterministic, "transition function not deterministic")])
        outcome.operation("partial_correctness", [
            (pc.is_partially_correct == safe,
             f"verdict {pc.is_partially_correct} but registry safe={safe}"),
            (pc.complete, "partial-correctness search incomplete")])
        outcome.operation("validity", [
            (validity.valid == safe,
             f"validity {validity.valid} but registry safe={safe}"),
            (validity.complete, "validity search incomplete")])
        census = {
            "".join(map(str, vector)): v.value
            for vector, v in sorted(valencies.items())}
        n = protocol.num_processes
        outcome.operation("census", [
            (len(census) == 2**n, f"census has {len(census)} rows"),
            (census.get("0" * n) == "0-valent", "all-0 input not 0-valent"),
            (census.get("1" * n) == "1-valent", "all-1 input not 1-valent")])
        # Compared with the reference census by the parent process.
        outcome.extra["census"] = census
        outcome.add("correctness.configurations",
                    pc.configurations_explored
                    + validity.configurations_explored)
        engine_counters(outcome, analyzer.graph)
        analyzer.close()
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()


def reference_census(protocol_name, n):
    from repro import registry

    census, _nodes = refsem.census(registry.build(protocol_name, n))
    return {"".join(map(str, k)): v for k, v in census.items()}


# -- deep ----------------------------------------------------------------------


class Deep:
    """One benor/3 root explored to a fixed budget, fingerprinted,
    checkpointed and restored into a fresh engine."""

    PROTOCOL, N, ROOT = "benor", 3, (0, 0, 1)
    #: Reference BFS depth compared node-for-node with the engine.
    LEVELS = 6

    def __init__(self, seed):
        # The seed moves the budget within 100,000 .. 100,999 nodes.
        self.budget = 100_000 + (seed * 7919) % 1000
        self.path = os.path.join(WORK, f"deep-{os.getpid()}.ckpt")

    def setup(self):
        from repro import registry
        from repro.core import checkpoint
        from repro.core.exploration import GlobalConfigurationGraph

        self.checkpoint = checkpoint
        self.engine_class = GlobalConfigurationGraph
        self.protocol = registry.build(self.PROTOCOL, self.N)
        self.root = self.protocol.initial_configuration(self.ROOT)

    def run(self, timer, outcome):
        graph = self.engine_class(self.protocol)
        before = rss_bytes()
        result, explore_s = timer.timed(
            graph.explore, self.root, max_configurations=self.budget)
        grown = rss_bytes() - before
        nodes = len(graph)
        saved_fp, _raw = timer.timed(graph.fingerprint)
        outcome.metrics["explore_nodes_per_s"] = nodes / explore_s
        outcome.metrics["bytes_per_node"] = grown / nodes
        outcome.operation("explore", [
            (nodes == self.budget,
             f"{nodes} configurations for a budget of {self.budget}"),
            (not result.complete, "budget run reported complete"),
            *self.level_checks(graph)])
        engine_counters(outcome, graph)

        info, save_s = timer.timed(
            self.checkpoint.save_checkpoint, graph, self.path)
        outcome.metrics["save_s"] = save_s
        size = os.path.getsize(self.path)
        outcome.metrics["checkpoint_mb"] = size / 1e6
        outcome.add("checkpoint.payload_mb", info.payload_bytes / 1e6)
        outcome.operation("save", [
            (info.nodes == nodes, "checkpoint header node count differs")])
        graph.close()
        del graph

        restored, resume_s = timer.timed(
            self.checkpoint.load_checkpoint, self.path, self.protocol)
        outcome.metrics["resume_s"] = resume_s
        outcome.operation("resume", [
            (len(restored) == nodes, "restored node count differs"),
            (restored.fingerprint() == saved_fp,
             "restored fingerprint differs from the saved engine's")])
        restored.close()
        os.remove(self.path)
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()

    def level_checks(self, graph):
        """The engine's first BFS levels against the reference BFS:
        the same configurations at each depth, the same successors."""
        want_levels, want_succ = refsem.bfs_levels(
            self.protocol, refsem.initial(self.protocol, self.ROOT),
            self.LEVELS)
        root = graph.find(self.root)
        seen, layer, levels = {root}, [root], []
        for _depth in range(self.LEVELS + 1):
            levels.append(layer)
            nxt = []
            for node in layer:
                for _event, child in graph.successors[node]:
                    if child not in seen:
                        seen.add(child)
                        nxt.append(child)
            layer = nxt
        keys = {}

        def key(node):
            if node not in keys:
                keys[node] = refsem.key(
                    refsem.from_engine(graph.configurations[node]))
            return keys[node]

        checks = []
        for d, nodes in enumerate(levels):
            got = {key(node) for node in nodes}
            checks.append((got == want_levels[d],
                           f"BFS level {d}: {len(got)} configurations, "
                           f"reference has {len(want_levels[d])}"))
        bad = sum(
            1 for nodes in levels[:-1] for node in nodes
            if {key(c) for _e, c in graph.successors[node]}
            != want_succ.get(key(node)))
        checks.append((bad == 0, f"{bad} nodes with wrong successor sets"))
        return checks


# -- attack --------------------------------------------------------------------


class Attack:
    """The Theorem-1 adversary, certificate replay and admissibility on
    an unreduced and a POR+symmetry instance."""

    STAGES = 64
    INSTANCES = (
        ("attack_s", "parity-arbiter", 4, False),
        ("reduced_attack_s", "wait-for-all", 4, True),
    )

    def __init__(self, seed):
        pass  # the instances are fixed: no input to draw from the seed

    def setup(self):
        from repro import registry
        from repro.adversary import certificates, flp
        from repro.analysis import admissibility
        from repro.core.reduction import ReductionPolicy
        from repro.core.valency import ValencyAnalyzer

        self.flp, self.admissibility = flp, admissibility
        self.modes = certificates.AdversaryMode
        self.analyzer_class = ValencyAnalyzer
        self.instances = [
            (metric, registry.build(name, n),
             ReductionPolicy(por=True, symmetry=True) if reduced else None)
            for metric, name, n, reduced in self.INSTANCES
        ]

    def run(self, timer, outcome):
        for metric, protocol, policy in self.instances:

            def attack():
                analyzer = self.analyzer_class(protocol, reduction=policy)
                adversary = self.flp.FLPAdversary(protocol, analyzer=analyzer)
                cert = adversary.build_run(stages=self.STAGES)
                verified = cert.verify(protocol)
                faulty = (frozenset({cert.faulty_process})
                          if cert.faulty_process else frozenset())
                report = self.admissibility.analyze_admissibility(
                    protocol, cert.initial, cert.schedule, faulty=faulty,
                    fault_point=cert.fault_point)
                return analyzer, cert, verified, report

            (analyzer, cert, verified, report), outcome.metrics[metric] = (
                timer.timed(attack))
            outcome.operation(metric, [
                (verified, "certificate.verify rejected its own run"),
                (report.fault_ok, "admissibility: " + report.summary()),
                *self.replay_checks(protocol, cert)])
            outcome.add("adversary.stages", len(cert.stages))
            engine_counters(outcome, analyzer.graph)
            analyzer.close()
            del analyzer  # free this engine before the next instance runs
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()

    def replay_checks(self, protocol, cert):
        """Replay the schedule on the reference semantics: applicable,
        nobody decides, at most one faulty process that stays silent."""
        run = refsem.replay(
            protocol, refsem.from_engine(cert.initial), cert.schedule)
        checks = [(run is not None, "schedule not applicable")]
        if run is None:
            return checks
        decided = sum(1 for config in run if refsem.decisions(config))
        checks.append((decided == 0,
                       f"{decided} replayed configurations hold a decision"))
        checks.append((refsem.key(run[-1])
                       == refsem.key(refsem.from_engine(cert.final)),
                       "replay does not end at the certified final"))
        fault = cert.mode is self.modes.FAULT
        checks.append((len(cert.stages) == self.STAGES or fault,
                       f"{len(cert.stages)} stages and no fault path"))
        if fault:
            late = [e for e in cert.schedule[cert.fault_point:]
                    if e.process == cert.faulty_process]
            checks.append((cert.faulty_process is not None and not late,
                           "faulty process steps after the fault point"))
        else:
            checks.append((cert.faulty_process is None,
                           "faulty process outside the fault path"))
        return checks


# -- serve ---------------------------------------------------------------------


class Serve:
    """``repro serve`` as a subprocess on a fresh spool, one closed-loop
    client: a cold mix of one small job per verb, then cached
    re-queries of the same specs, round-robin."""

    HITS = 2000

    def __init__(self, seed):
        rng = random.Random(seed)
        inputs = "".join(rng.choice("01") for _ in range(3))
        self.specs = [
            {"verb": "check", "protocol": "parity-arbiter", "n": 3},
            {"verb": "map", "protocol": "parity-arbiter", "n": 3,
             "inputs": inputs},
            {"verb": "attack", "protocol": "parity-arbiter", "n": 3,
             "stages": 6},
            {"verb": "survive", "protocol": "arbiter", "max_steps": 200},
            {"verb": "spectrum", "protocol": "benor", "preset": "smoke",
             "seed": seed % 1000},
        ]
        rng.shuffle(self.specs)
        self.spool = os.path.join(WORK, f"spool-{os.getpid()}")
        self.daemon = None
        # Imported here, not in setup(): serve set-up time runs from
        # daemon start to its first ready answer.
        from repro.serve.client import ServeClient

        self.client_class = ServeClient

    def setup(self):
        """Daemon start to the first ``/readyz`` 200."""
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--spool", self.spool,
             "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        endpoint = os.path.join(self.spool, "endpoint.json")
        deadline = time.monotonic() + 60
        while True:
            if time.monotonic() > deadline or self.daemon.poll() is not None:
                raise RuntimeError("serve daemon did not become ready")
            if os.path.exists(endpoint):
                try:
                    self.client = self.client_class.from_spool(self.spool)
                    if self.client.readyz().status == 200:
                        return
                except (ConnectionError, OSError):
                    pass
            time.sleep(0.002)

    def run(self, timer, outcome):
        client = self.client

        def cold_mix():
            return [client.query(spec, retry=False) for spec in self.specs]

        colds, cold_s = timer.timed(cold_mix)
        outcome.metrics["cold_s"] = cold_s
        for spec, response in zip(self.specs, colds):
            outcome.operation("cold " + spec["verb"], [
                (response.status == 200, f"status {response.status}"),
                (response.headers.get("x-repro-cache") == "accepted",
                 "cold query not run as a new job")])
        check = colds[[s["verb"] for s in self.specs].index("check")]
        if check.status == 200:
            rows = json.loads(check.body)["result"]["census"]
            outcome.extra["census"] = {r["inputs"]: r["valency"] for r in rows}

        latencies, mismatched = [], []

        def hits():
            for i in range(self.HITS):
                spec = self.specs[i % len(self.specs)]
                started = time.perf_counter()
                response = client.query(spec, retry=False)
                latencies.append(time.perf_counter() - started)
                mismatched.append(
                    response.status != 200
                    or response.headers.get("x-repro-cache") != "cached"
                    or response.body != colds[i % len(self.specs)].body)

        timer.timed(hits)
        outcome.extra["hit_ms"] = [s * 1e3 for s in latencies]
        outcome.metrics["hit_ms"] = statistics.median(outcome.extra["hit_ms"])
        for bad in mismatched:
            outcome.operation("hit", [
                (not bad, "cached response differs from its cold response")])

        stats = client.stats()["counters"]
        outcome.operation("stats", [
            (stats["explorations_run"] == len(self.specs),
             f"{stats['explorations_run']} explorations for "
             f"{len(self.specs)} distinct cold specs"),
            (stats["cache_hits"] == self.HITS,
             f"{stats['cache_hits']} cache hits for {self.HITS} re-queries")])
        outcome.add("serve.explorations", stats["explorations_run"])
        outcome.add("serve.cache_hits", stats["cache_hits"])
        cold_ids = {r.headers.get("x-repro-job") for r in colds}
        jobs = [j for j in client.jobs() if j["id"] in cold_ids]
        outcome.extra["queue_wait_ms"] = [
            (j["started_unix"] - j["submitted_unix"]) * 1e3 for j in jobs]
        outcome.extra["run_ms"] = [
            (j["finished_unix"] - j["started_unix"]) * 1e3 for j in jobs]
        outcome.metrics["peak_rss_mb"] = self.daemon_peak_mb()

    def daemon_peak_mb(self):
        with open(f"/proc/{self.daemon.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the serve daemon")

    def stop(self):
        """Drain the daemon, kill it if it will not go, remove the spool
        (``round.py`` calls this however the round ended)."""
        if self.daemon is not None and self.daemon.poll() is None:
            self.daemon.send_signal(signal.SIGTERM)
            try:
                self.daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
        shutil.rmtree(self.spool, ignore_errors=True)


WORKLOADS = {"check": Check, "deep": Deep, "attack": Attack, "serve": Serve}
