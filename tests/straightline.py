"""Independent straight-line re-implementation of the protocol for small n.

Keeps literal per-target record sets and follows the round/stage/step
structure directly, drawing from the same keyed random streams as the
engine so that runs are comparable draw-for-draw.  Deliberately naive:
dict-of-set knowledge, full snapshot copies, quadratic scans.  Used as an
oracle for the production engine at small populations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from relsim.adversary import assign_probabilities, generate_crash_schedule
from relsim.engine import _LANE_CRASHES, _LANE_RELIABILITY, rng_stream
from relsim.estimator import (
    UNDETERMINED,
    EstimationParams,
    ResultRecord,
    estimation,
    gamma1,
)


@dataclass
class RefProcessor:
    pid: int
    n: int
    round: int = 0
    level: int = 0
    enlightened: bool = False
    halted: bool = False
    knowledge: list[set[ResultRecord]] = None
    estimates: list = None
    pending: tuple | None = None
    plan: list = field(default_factory=list)

    def __post_init__(self):
        if self.knowledge is None:
            self.knowledge = [set() for _ in range(self.n)]


@dataclass
class RefRun:
    completion: str
    halt_rounds: list
    estimates: dict
    enlighten_rounds: dict
    messages_total: int
    messages_by_type: dict
    knowledge: dict
    # The RunMetrics counters, named as there.
    counters: dict


def run_reference(config) -> RefRun:
    n = config.n
    seed = config.seed
    params = config.params
    g1 = gamma1(params)
    needed = math.ceil(g1)
    cap = max(1, (n - 1).bit_length())
    halt_level = (n - 1).bit_length()
    max_rounds = config.effective_max_rounds()

    truth = assign_probabilities(
        n, config.reliability, rng_stream(seed, 0, 0, _LANE_RELIABILITY)
    )
    schedule = generate_crash_schedule(
        n, config.model, config.crash_pattern, rng_stream(seed, 0, 0, _LANE_CRASHES)
    )
    p = truth.p

    procs = [RefProcessor(pid=i, n=n) for i in range(n)]
    messages_total = 0
    by_type = {"task_request": 0, "task_response": 0, "share": 0, "profess": 0}
    enlighten_rounds = {}

    counters = dict.fromkeys(
        ("work_steps", "tasks_executed", "false_crash_detections",
         "dropped_requests", "delivered", "dropped_to_crashed",
         "dropped_to_halted"), 0)

    def live(pid, rnd):
        # Not yet crashed: a worker is gone from its crash round on.
        return schedule.crash_round.get(pid, rnd + 1) > rnd

    def alive(pid, rnd):
        return live(pid, rnd) and not procs[pid].halted

    def route(pid, rnd):
        # Ledger of one send; True when it is delivered.
        if alive(pid, rnd):
            counters["delivered"] += 1
        elif not live(pid, rnd):
            counters["dropped_to_crashed"] += 1
        else:
            counters["dropped_to_halted"] += 1
        return alive(pid, rnd)

    rnd = 0
    while True:
        active = [pr for pr in procs if alive(pr.pid, rnd)]
        if not active:
            completion = "all_halted"
            break
        if rnd >= max_rounds:
            completion = "round_cap_hit"
            break
        counters["work_steps"] += 9 * len(active)

        # query stage
        qr = {pr.pid: rng_stream(seed, pr.pid, rnd, "query") for pr in active}
        requests = {pr.pid: [] for pr in active}
        for pr in active:
            q = int(qr[pr.pid].integers(n))
            pr.pending = (q, rnd)
            messages_total += 1
            by_type["task_request"] += 1
            if route(q, rnd):
                requests[q].append(pr.pid)
        for pr in active:
            rng = qr[pr.pid]
            requesters = sorted(requests[pr.pid])
            if len(requesters) > cap:
                chosen = rng.choice(np.asarray(requesters, dtype=np.int64),
                                    size=cap, replace=False)
                requesters = [int(x) for x in np.sort(chosen)]
            pr.plan = [(req, bool(rng.random() < p[pr.pid])) for req in requesters]
            counters["tasks_executed"] += len(pr.plan)
            counters["dropped_requests"] += len(requests[pr.pid]) - len(pr.plan)

        # response stage
        responses = {pr.pid: {} for pr in active}
        for pr in active:
            for requester, correct in pr.plan:
                messages_total += 1
                by_type["task_response"] += 1
                if route(requester, rnd):
                    responses[requester][pr.pid] = correct
            pr.plan = []
        for pr in active:
            q, _ = pr.pending
            if q in responses[pr.pid]:
                res = 1 if responses[pr.pid][q] else 0
            else:
                res = -1
                if live(q, rnd):
                    counters["false_crash_detections"] += 1
            pr.knowledge[q] = pr.knowledge[q] | {ResultRecord(res, pr.pid, rnd)}
            pr.pending = None
        for pr in active:
            if not pr.enlightened:
                ok = True
                for j in range(n):
                    correct = sum(1 for r in pr.knowledge[j] if r.res == 1)
                    crashed = any(r.res == -1 for r in pr.knowledge[j])
                    if not (correct >= needed or crashed):
                        ok = False
                        break
                if ok:
                    pr.enlightened = True
                    enlighten_rounds.setdefault(pr.pid, rnd)

        # gossip stage
        inboxes = {pr.pid: [] for pr in active}
        for pr in active:
            rng = rng_stream(seed, pr.pid, rnd, "gossip")
            snapshot = [set(s) for s in pr.knowledge]
            if pr.enlightened:
                k = max(1, math.ceil(2.0 ** (pr.level - 1) * math.log2(n))) if n > 1 else 1
                dests = np.unique(rng.integers(0, n, size=k))
                for d in dests:
                    messages_total += 1
                    by_type["profess"] += 1
                    if route(int(d), rnd):
                        inboxes[int(d)].append(("profess", snapshot, pr.level, pr.pid))
                pr.level += 1
            else:
                q = int(rng.integers(n))
                messages_total += 1
                by_type["share"] += 1
                if route(q, rnd):
                    inboxes[q].append(("share", snapshot, pr.level, pr.pid))
        for pr in active:
            inbox = inboxes[pr.pid]
            if any(kind == "profess" for kind, *_ in inbox):
                if not pr.enlightened:
                    pr.enlightened = True
                    enlighten_rounds.setdefault(pr.pid, rnd)
            if config.literal_ell_reset:
                candidates = inbox
            else:
                candidates = [m for m in inbox if m[0] == "profess"]
            if any((pr.level, pr.pid) < (lvl, src) for _k, _s, lvl, src in candidates):
                pr.level = 0
        for pr in active:
            inbox = inboxes[pr.pid]
            for _kind, snap, _lvl, _src in inbox:
                for j in range(n):
                    pr.knowledge[j] |= snap[j]
            if any(k == "profess" and lvl >= halt_level for k, _s, lvl, _src in inbox):
                pr.estimates = estimation(pr.knowledge, params)
                pr.halted = True
            else:
                pr.round += 1
        rnd += 1

    return RefRun(
        completion=completion,
        halt_rounds=[pr.round if pr.halted else None for pr in procs],
        estimates={pr.pid: pr.estimates for pr in procs if pr.halted},
        enlighten_rounds=enlighten_rounds,
        messages_total=messages_total,
        messages_by_type=by_type,
        knowledge={pr.pid: pr.knowledge for pr in procs},
        counters={"rounds_to_all_halt": rnd, **counters},
    )
