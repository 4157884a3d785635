"""Seeded benchmark for ``alp learn``.

    python3 bench/run.py --workload family-dec1 --seed 1 --seconds 40 --trace 0

Run from the repository root.  Inputs come from ``bench/workloads.py`` and
depend only on ``--workload`` and ``--seed``.  Every ``learn`` call runs in
its own child process (``bench/child.py``), one at a time, under a wall
deadline, because ``--time-limit`` does not bound the solver's fallback
search.  The end-to-end times are scaled by a reference loop timed between
the children, so that the machine's changing speed cancels out (see
NOMINAL_REF_S); the raw medians are printed beside them.

With ``--trace 0`` the run times ``learn`` with nothing traced and reports
the end-to-end metrics.  With ``--trace 1`` it times each KB once untraced
and once through ``spans.traced_learn``, which wraps every stage call in a
span, and reports the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Output checks, each counted as a failure when it does not hold:
  * the serialized program, parsed back, re-scores to the reported objective;
  * program and latent bytes repeat across calls on one KB, and the traced
    run returns the same bytes as the untraced one;
  * the MILP oracle's selection is feasible, re-scores to its optimum, and
    the learned objective is not below that optimum;
  * over the large family KB the fixed program's loss equals the number of
    parent facts the generator dropped.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path[:0] = [str(BENCH), str(SRC)]
from workloads import FAMILY_PROGRAM, WORKLOADS, generate  # noqa: E402

# Fresh set-up processes: one after every third learn call, so that they
# spread over the run like the other samples, and at least this many.
SETUP_REPS = 9
# Seconds of repeated encode + reconstruct + loss_parts of the fixed program
# over the large KB, in one child after every fourth learn call.
APPLY_CHUNK_S = 1.0
# The speed of a shared machine can drift by a third and more, for seconds
# or minutes at a time, and a raw time follows it.  So a reference loop that
# does not touch alp runs after every child, and each timed sample is scaled
# by NOMINAL_REF_S over the median of the 2 * REF_REACH reference times
# nearest its child: it reads as the seconds it would take where that loop
# takes NOMINAL_REF_S.  That is about the loop's median time on a 2-core
# x86_64 VM with Python 3.11, so scaled times there read close to raw ones.
# A slower alp still reads slower by the same share.  One reference time
# alone is too short to say how fast the machine was during a longer sample.
NOMINAL_REF_S = 0.08
REF_REACH = 3
# Extra wall time a child gets beyond its own deadlines before it is killed.
KILL_GRACE_S = 30.0
# The oracle child solves every finished KB of a run; to keep a run under
# three minutes a slower oracle is killed and reported as a failed check.
ORACLE_TIMEOUT_S = 90.0

PER_LAYER = {
    "kb.parse_s": "s",
    "kb.facts": "count",
    "candidates.encoders_s": "s",
    "candidates.encoders": "count",
    "candidates.decoders_s": "s",
    "candidates.decoders": "count",
    "pruning.naming_s": "s",
    "pruning.signature_s": "s",
    "pruning.corrupt_s": "s",
    "pruning.encoders_kept": "count",
    "pruning.decoders_kept": "count",
    "pruning.decoder_yield": "ratio",
    "model.build_s": "s",
    "model.ec": "count",
    "model.dc": "count",
    "model.rf": "count",
    "model.constraints": "count",
    "model.pairs": "count",
    "model.iff_or": "count",
    "model.at_least_one": "count",
    "solver.seed_s": "s",
    "solver.lns_s": "s",
    "solver.seed_objective": "count",
    "solver.improving_iterations": "count",
    "solver.iteration_found": "count",
    "logic.audit_s": "s",
    "logic.encode_s": "s",
    "logic.decode_s": "s",
    "logic.loss_s": "s",
    "pipeline.total_s": "s",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
}
# Span names whose summed duration gives the "<name>_s" metric.
SPAN_METRICS = {
    "kb.parse", "candidates.encoders", "candidates.decoders", "pruning.naming",
    "pruning.signature", "pruning.corrupt", "model.build", "solver.seed",
    "solver.lns", "logic.audit", "logic.encode", "logic.decode", "logic.loss",
}
END_TO_END = {"learn_s": "s", "apply_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def reference_s() -> float:
    """The reference loop's seconds, timed in a child of its own so that its
    memory never counts towards the parent's or a measured child's RSS."""
    reply = run_child({"op": "reference"}, 30.0)
    if "reference_s" not in reply:
        raise SystemExit(f"reference child failed: {reply}")
    return reply["reference_s"]


def run_child(request: dict, timeout: float) -> dict:
    """Run one request in a fresh interpreter and return its reply.

    A child that outlives ``timeout`` is killed and waited for."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py")],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"status": "killed"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"status": "crash", "error": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def tail_note(values) -> str:
    """The highest of p99/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[p - 1]
            return f"p{p} {cut:.4f}"
    return "no tail percentile (fewer than 10 samples beyond p75)"


class Run:
    """State of one benchmark invocation: replies, checks and timing."""

    def __init__(self, workload, seed: int, seconds: float):
        self.w = workload
        self.seconds = seconds
        self.kbs, self.large = generate(workload, seed)
        # Outcome of each checked operation: the learn calls on one KB, the
        # fixed program over the large KB, the oracle.  An operation counts
        # once however often it runs, so ``attempted`` and ``failed`` depend
        # only on the inputs, not on how many calls fit into the run.
        self.outcomes: dict[str, bool] = {}
        self.mismatches: list[str] = []
        self.rss_kb: list[int] = []
        self.refs = [reference_s()]

    # -- shared pieces -----------------------------------------------------

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.outcomes.values())

    def record(self, op: str, ok: bool, mismatch: str = "") -> None:
        """Note one outcome of ``op``, which fails if any outcome does.  A
        ``mismatch`` is a failed output check and makes the run incorrect."""
        self.outcomes[op] = self.outcomes.get(op, True) and ok and not mismatch
        if mismatch:
            self.mismatches.append(f"{op}: {mismatch}")

    def child(self, request: dict, timeout: float) -> dict:
        """``run_child``, then one run of the reference loop; ``at`` in the
        reply is the index of that reference time."""
        reply = run_child(request, timeout)
        self.refs.append(reference_s())
        reply["at"] = len(self.refs) - 1
        return reply

    def scaled(self, seconds: float, at: int) -> float:
        """``seconds`` timed in the child before reference time ``at``, at
        nominal speed."""
        near = self.refs[max(0, at - REF_REACH):at + REF_REACH]
        return seconds * NOMINAL_REF_S / median(near)

    def learn_call(self, i: int, **extra) -> dict:
        kb, s = self.kbs[i], self.w.learn
        request = {
            "op": "learn", "text": kb.text, "gen": s.gen(), "search": s.search(),
            "gamma": s.gamma, "deadline": self.w.deadline_s, **extra,
        }
        reply = self.child(request, self.w.deadline_s + KILL_GRACE_S)
        if "rss_kb" in reply:
            self.rss_kb.append(reply["rss_kb"])
        if reply["status"] in ("ok", "deadline", "killed", "error"):
            self.record(f"kb {i}", reply["status"] == "ok")
        else:
            self.record(f"kb {i}", False, f"child {reply['status']}: {reply.get('error', '')[:300]}")
        return reply

    def check_rescore(self, i: int, reply: dict) -> None:
        from alp.kb import parse_kb_document
        from alp.logic import parse_program, reconstruction_loss

        program = parse_program(reply["program"])
        loss = reconstruction_loss(program, parse_kb_document(self.kbs[i].text).kb)
        if loss != reply["objective"]:
            self.record(f"kb {i}", False, f"program re-scores to {loss}, objective {reply['objective']}")

    def setup_sample(self) -> tuple[float, int]:
        """One fresh process: ``import alp`` plus parsing every input.
        Returns its raw seconds and its reference index."""
        texts = [kb.text for kb in self.kbs] + [self.large.text]
        reply = self.child({"op": "setup", "texts": texts}, 30.0)
        if "setup_s" not in reply:
            raise SystemExit(f"setup child failed: {reply}")
        self.rss_kb.append(reply["rss_kb"])
        return reply["setup_s"], reply["at"]

    # -- trace 0: end-to-end ---------------------------------------------------

    def learn_loop(self, budget: float, between_calls) -> dict:
        """Call learn on the KBs in order, pass after pass.  The first pass
        always runs to its end, so every run measures every KB; later passes
        run while ``budget`` seconds remain.  A KB's time is the mean of its
        calls, raw and scaled, so each KB weighs the same however many
        passes fit.  A KB that missed the deadline or raised counts at the
        deadline and is not called again: its outcome is known, and a retry
        would cost the whole deadline.  ``between_calls`` runs after every
        call, so the other samples of the run spread over the same stretch
        of time."""
        start = time.monotonic()
        deadline = self.w.deadline_s
        per_kb: dict[int, list[tuple[float, int]]] = {}
        raw: list[float] = []
        first: dict[int, dict] = {}
        missed: set[int] = set()
        passes = 0
        while len(missed) < len(self.kbs) and (not passes or time.monotonic() - start < budget):
            for i in range(len(self.kbs)):
                if passes and time.monotonic() - start >= budget:
                    break
                if i in missed:
                    continue
                reply = self.learn_call(i)
                between_calls()
                first.setdefault(i, reply)
                if reply["status"] != "ok":
                    raw.append(deadline)
                    missed.add(i)
                    continue
                raw.append(reply["learn_s"])
                per_kb.setdefault(i, []).append((reply["learn_s"], reply["at"]))
                if first[i] is reply:
                    self.check_rescore(i, reply)
                elif (reply["program_sha"], reply["latent_sha"]) != (
                    first[i]["program_sha"], first[i]["latent_sha"]
                ):
                    self.record(f"kb {i}", False, "program or latent bytes differ between calls")
            passes += 1
        kb_raw = [
            deadline if i in missed else statistics.mean(t for t, _ in per_kb[i])
            for i in sorted(first)
        ]
        kb_times = [
            deadline if i in missed else statistics.mean(self.scaled(*c) for c in per_kb[i])
            for i in sorted(first)
        ]
        ok = {i: r for i, r in first.items() if r["status"] == "ok"}
        gaps = self.oracle_gaps(ok)
        print("# learn_s per KB: " + " ".join(
            "miss" if i in missed else f"{t:.2f}" for i, t in zip(sorted(first), kb_times)
        ))
        return {
            "kb_times": kb_times,
            "kb_raw": kb_raw,
            "raw_times": raw,
            "objective": statistics.mean(r["objective"] for r in ok.values()) if ok else None,
            "oracle_gap": statistics.mean(gaps) if gaps else None,
            "finished_kbs": len(ok),
            "optimal_share": sum(r["proven_optimal"] for r in ok.values()) / len(first),
            "calls": len(raw),
            "misses": sum(r["status"] in ("deadline", "killed") for r in first.values()),
            "errors": sorted({r.get("error", "")[:80] for r in first.values() if r["status"] == "error"}),
            "passes": passes,
        }

    def oracle_gaps(self, ok: dict[int, dict]) -> list[int]:
        """Solve each finished KB's model exactly in one child, after the
        timed calls.  The oracle's selection must be feasible and re-score
        to its optimum, and the learned objective may not be below it.
        Returns objective minus optimum per KB."""
        if not ok:
            return []
        s = self.w.learn
        reply = run_child(
            {"op": "oracle", "texts": [self.kbs[i].text for i in ok], "gen": s.gen(), "gamma": s.gamma},
            ORACLE_TIMEOUT_S,
        )
        if reply["status"] != "ok":
            self.record("oracle", False, f"child {reply['status']}: {reply.get('error', '')[:300]}")
            return []
        self.record("oracle", True)
        gaps = []
        for (i, learned), o in zip(ok.items(), reply["results"]):
            if not o["feasible"] or o["rescored"] != o["optimum"]:
                self.record(f"kb {i}", False, f"oracle selection infeasible or re-scores wrongly: {o}")
            elif learned["objective"] < o["optimum"]:
                self.record(f"kb {i}", False, f"objective {learned['objective']} below optimum {o['optimum']}")
            gaps.append(learned["objective"] - o["optimum"])
        return gaps

    def apply_fixed(self, seconds: float) -> list[tuple[float, int]]:
        """Raw times of repeated encode + reconstruct + loss_parts of the
        fixed program over the large KB, in one child, for ``seconds``,
        each with the child's reference index."""
        reply = self.child(
            {"op": "apply", "text": self.large.text, "program": FAMILY_PROGRAM, "seconds": seconds},
            seconds + 60.0,
        )
        if reply["status"] != "ok":
            self.record("apply", False, f"child {reply['status']}: {reply.get('error', '')[:300]}")
            return []
        self.rss_kb.append(reply["rss_kb"])
        self.check_large_loss(reply)
        return [(t, reply["at"]) for t in reply["apply_times"]]

    def check_large_loss(self, reply: dict) -> None:
        if (reply["missing"], reply["false"]) == (0, self.large.dropped_parent):
            self.record("apply", True)
        else:
            self.record("apply", False, (
                f"large KB loss ({reply['missing']} missing, {reply['false']} false) "
                f"!= generator's {self.large.dropped_parent} dropped parent facts"
            ))

    def end_to_end(self) -> dict:
        self.setup_sample()  # warms the bytecode cache; not reported
        setup_times: list[tuple[float, int]] = []
        apply_times: list[tuple[float, int]] = []
        calls = 0

        def between_calls():
            nonlocal calls
            calls += 1
            if calls % 3 == 1:
                setup_times.append(self.setup_sample())
            if calls % 4 == 1:
                apply_times.extend(self.apply_fixed(APPLY_CHUNK_S))

        stats = self.learn_loop(self.seconds, between_calls)
        while len(setup_times) < SETUP_REPS:
            setup_times.append(self.setup_sample())
        raw = {
            "learn_s": median(stats["kb_raw"]),
            "apply_s": median([t for t, _ in apply_times]),
            "setup_s": median([t for t, _ in setup_times]),
        }
        metrics = {
            "learn_s": median(stats["kb_times"]),
            "apply_s": median([self.scaled(*c) for c in apply_times]),
            "setup_s": median([self.scaled(*c) for c in setup_times]),
            "peak_rss_mb": max(self.rss_kb) / 1024,
        }
        name = self.w.name
        print(f"# {name}: {len(self.kbs)} KBs, {stats['passes']} passes, "
              f"deadline {self.w.deadline_s:g} s, settings {self.w.learn}")
        print(f"# times scaled to a reference loop of {NOMINAL_REF_S} s; it took a median "
              f"{median(self.refs):.4f} s over {len(self.refs)} runs; raw seconds follow each")
        print(f"{name}\tlearn_s\t{metrics['learn_s']:.4f} s\tmedian over {len(stats['kb_times'])} "
              f"KBs of each one's mean call, a miss counting at the deadline; "
              f"raw {raw['learn_s']:.4f} s")
        every = stats["raw_times"]
        print(f"# {name}: raw median of all {len(every)} learn calls {median(every):.4f} s; "
              f"{tail_note(every)}")
        print(f"{name}\tapply_s\t{metrics['apply_s']:.4f} s\tmedian of {len(apply_times)} passes "
              f"of the fixed program over {self.large.facts} facts; raw {raw['apply_s']:.4f} s")
        print(f"{name}\tsetup_s\t{metrics['setup_s']:.4f} s\tmedian of {len(setup_times)} fresh "
              f"processes; raw {raw['setup_s']:.4f} s")
        print(f"{name}\tpeak_rss_mb\t{metrics['peak_rss_mb']:.1f} MB")
        for key in ("objective", "oracle_gap"):
            value = stats[key]
            shown = "n/a (no call finished)" if value is None else f"{value:.4f}"
            print(f"{name}\t{key}\t{shown} count\tmean over {stats['finished_kbs']} KBs")
        kbs = len(self.kbs)
        print(f"{name}\toptimal_share\t{stats['optimal_share']:.4f} share\tof {kbs} KBs")
        kb_failed = sum(not self.outcomes[f"kb {i}"] for i in range(kbs))
        print(f"{name}\tfailed_share\t{kb_failed / kbs:.4f} share\t{kb_failed} of {kbs} KBs "
              f"over {stats['calls']} calls; {stats['misses']} KBs missed the deadline; "
              f"errors {stats['errors']}")
        return metrics

    # -- trace 1: per layer ------------------------------------------------------

    def per_layer(self) -> dict:
        start = time.monotonic()
        rows: list[dict] = []
        learn_spans: list[list[dict]] = []
        for i in range(len(self.kbs)):
            if i and time.monotonic() - start >= self.seconds:
                break
            traced = self.learn_call(i, trace=True)
            if "spans" not in traced:
                continue
            row = layer_values(traced["spans"], traced["counters"])
            learn_spans.append(traced["spans"])
            if traced["status"] == "ok":
                plain = self.learn_call(i)
                if plain["status"] == "ok":
                    row["trace.overhead_s"] = row["pipeline.total_s"] - plain["learn_s"]
                    if (plain["program_sha"], plain["latent_sha"], plain["objective"]) != (
                        traced["program_sha"], traced["latent_sha"], traced["objective"]
                    ):
                        self.record(f"kb {i}", False, "traced result differs from learn's")
            rows.append(row)
        metrics = {k: mean_of(rows, k) for k in PER_LAYER}
        print_shares(self.w.name, "learn", learn_spans)
        reply = run_child(
            {"op": "apply", "text": self.large.text, "program": FAMILY_PROGRAM, "trace": True},
            60.0,
        )
        if reply["status"] != "ok":
            self.record("apply", False, f"child {reply['status']}: {reply.get('error', '')[:300]}")
        else:
            self.check_large_loss(reply)
            large = layer_values(reply["spans"], reply["counters"])
            for k in ("kb.parse_s", "kb.facts", "logic.encode_s", "logic.decode_s", "logic.loss_s"):
                metrics[k] = large[k]
            print_shares(self.w.name, "apply", [reply["spans"]])
        return metrics


def layer_values(spans: list[dict], counters: dict) -> dict:
    row = {f"{name}_s": 0.0 for name in SPAN_METRICS}
    for s in spans:
        if s["name"] in SPAN_METRICS:
            row[f"{s['name']}_s"] += s["end"] - s["start"]
        elif s["name"] == "pipeline.learn":
            row["pipeline.total_s"] = s["end"] - s["start"]
            row["pipeline.self_s"] = s["self"]
    row.update(counters)
    return row


def mean_of(rows: list[dict], key: str) -> float:
    values = [r[key] for r in rows if key in r]
    return statistics.mean(values) if values else 0.0


# Span-name prefixes whose self time should dominate each phase of each
# workload's traced run.
DOMINANT = {
    ("family-dec1", "learn"): ("solver.lns",),
    ("family-dec1", "apply"): ("logic.",),
    ("default-bias", "learn"): ("solver.seed", "model.build"),
    ("default-bias", "apply"): ("logic.",),
}


def print_shares(name: str, phase: str, runs: list[list[dict]]) -> None:
    """Share of each layer's self time in the phase's traced time, and
    whether the spans named in ``DOMINANT`` take more than half of it."""
    by_layer: dict[str, float] = {}
    for spans in runs:
        for s in spans:
            layer = s["name"].split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + s["self"]
    total = sum(by_layer.values()) or 1.0
    shares = ", ".join(
        f"{layer} {t / total:.3f}" for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1])
    )
    print(f"# {name} {phase} self-time shares over {len(runs)} traced calls: {shares}")
    prefixes = DOMINANT.get((name, phase))
    if prefixes:
        share = sum(
            s["self"] for spans in runs for s in spans if s["name"].startswith(prefixes)
        ) / total
        verdict = "holds" if share > 0.5 else "does not hold"
        print(f"# {name}: {' + '.join(prefixes)} take {share:.3f} of traced {phase} time: "
              f"dominance {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "alp" / "__init__.py").is_file():
        print(f"error: no alp package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    if args.trace:
        values = run.per_layer()
        units = PER_LAYER
        for k, unit in units.items():
            print(f"{args.workload}\t{k}\t{values[k]:.6g} {unit}")
    else:
        values = run.end_to_end()
        units = END_TO_END
    for m in run.mismatches:
        print(f"# CHECK FAILED: {m}")
    print(json.dumps({
        "correct": not run.mismatches,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
