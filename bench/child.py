"""One measurement in a fresh process: reads a JSON request on stdin and
writes one JSON reply on stdout.

Operations:
  setup  time ``import alp`` plus ``parse_kb_document`` of the given texts;
  learn  one ``learn`` call (or its traced twin) under a wall deadline;
  apply  encode + reconstruct + loss_parts of a fixed program, repeated
         (or traced once);
  oracle the exact optimum of each KB's compiled model;
  reference  time a fixed loop that does not touch ``alp`` (see ``run.py``).

``alp`` is imported only inside the operations, so ``setup`` times a cold
import.  Peak RSS is read with ``resource.getrusage``; the oracle runs in
a child of its own, so SciPy never counts towards it.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import sys
import time
import traceback


class DeadlineExceeded(BaseException):
    """Raised from the SIGALRM handler; a BaseException so that no handler
    for ordinary errors inside the library swallows it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def op_setup(req: dict) -> dict:
    t0 = time.perf_counter()
    import alp

    for text in req["texts"]:
        alp.parse_kb_document(text)
    return {"setup_s": time.perf_counter() - t0, "rss_kb": _rss_kb()}


def op_reference(req: dict) -> dict:
    """Seconds of a fixed pure-Python loop over a dict of some 10 MB.  Like
    ``learn``'s, its time follows the machine's speed of the moment, for
    memory-bound work too."""
    t = time.perf_counter()
    table = {}
    for i in range(100_000):
        table[(i * 7919) % 100_003, i & 15] = str(i)
    total = 0
    for i in range(0, 100_000, 3):
        total += len(table.get(((i * 7919) % 100_003, i & 15), ""))
    return {"reference_s": time.perf_counter() - t}


def _spans_out(tracer) -> dict:
    from spans import self_times

    selfs = self_times(tracer.spans)
    return {
        "spans": [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "self": st}
            for s, st in zip(tracer.spans, selfs)
        ],
        "counters": tracer.counters,
    }


def _apply_times(alp, kb, seconds: float) -> list[float]:
    """Times of encode + reconstruct + loss_parts, repeated for at least
    ``seconds`` and at least once, after one untimed warm-up pass."""
    from alp.logic import encode, loss_parts, reconstruct

    loss_parts(alp, kb)
    times: list[float] = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        t = time.perf_counter()
        encode(alp, kb)
        reconstruct(alp, kb)
        loss_parts(alp, kb)
        times.append(time.perf_counter() - t)
    return times


def op_learn(req: dict) -> dict:
    from fractions import Fraction

    from alp import GenerationConfig, KnowledgeBase, SearchConfig, parse_kb_document
    from alp.errors import AlpError
    from alp.kb import serialize_kb
    from alp.logic import serialize_program
    from alp.pipeline import learn
    from spans import Tracer, traced_learn

    tracer = Tracer() if req.get("trace") else None
    doc = parse_kb_document(req["text"])
    gen = GenerationConfig(**req["gen"])
    search = SearchConfig(**req["search"])
    gamma = Fraction(req["gamma"])
    reply: dict = {}
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, req["deadline"])
    t0 = time.perf_counter()
    try:
        if tracer:
            alp, latent, solution, _ = traced_learn(tracer, doc.kb, doc.modes, gen, search, gamma)
        else:
            result = learn(doc.kb, doc.modes, gen, search, gamma)
            alp, latent, solution = result.alp, result.latent, result.solution
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        reply.update(status="deadline", rss_kb=_rss_kb())
        if tracer:
            reply.update(_spans_out(tracer))
        return reply
    except AlpError as exc:
        signal.setitimer(signal.ITIMER_REAL, 0)
        reply.update(status="error", error=f"{type(exc).__name__}: {exc}", rss_kb=_rss_kb())
        return reply
    program = serialize_program(alp)
    reply.update(
        status="ok",
        learn_s=elapsed,
        objective=solution.objective,
        proven_optimal=solution.proven_optimal,
        program=program,
        program_sha=_digest(program),
        latent_sha=_digest(serialize_kb(KnowledgeBase.from_facts(latent))),
    )
    if tracer:
        reply.update(_spans_out(tracer))
    reply["rss_kb"] = _rss_kb()
    return reply


def op_oracle(req: dict) -> dict:
    """Rebuild each KB's model as ``learn`` does and solve it exactly."""
    from fractions import Fraction

    from alp import GenerationConfig, parse_kb_document
    from alp.model import build_model
    from alp.pipeline import prepare_pool
    from oracle import oracle

    gen = GenerationConfig(**req["gen"])
    results = []
    for text in req["texts"]:
        doc = parse_kb_document(text)
        encoders, decoders, _, _ = prepare_pool(doc.kb, doc.modes, gen)
        model = build_model(encoders, decoders, doc.kb, Fraction(req["gamma"]))
        o = oracle(model, doc.kb)
        results.append({"optimum": o.optimum, "rescored": o.rescored, "feasible": o.feasible})
    return {"status": "ok", "results": results}


def op_apply(req: dict) -> dict:
    from alp import parse_kb_document, parse_program
    from alp.logic import loss_parts
    from spans import Tracer, traced_apply

    alp = parse_program(req["program"])
    reply: dict = {}
    if req.get("trace"):
        tracer = Tracer()
        with tracer.span("kb.parse"):
            doc = parse_kb_document(req["text"])
        tracer.count("kb.facts", len(doc.kb.facts))
        missing, false = traced_apply(tracer, alp, doc.kb)
        reply.update(_spans_out(tracer))
    else:
        doc = parse_kb_document(req["text"])
        reply["apply_times"] = _apply_times(alp, doc.kb, req["seconds"])
        missing, false = loss_parts(alp, doc.kb)
    reply.update(status="ok", missing=missing, false=false, rss_kb=_rss_kb())
    return reply


OPS = {
    "setup": op_setup, "learn": op_learn, "apply": op_apply, "oracle": op_oracle,
    "reference": op_reference,
}


def main() -> int:
    req = json.loads(sys.stdin.read())
    try:
        reply = OPS[req["op"]](req)
    except Exception:
        reply = {"status": "crash", "error": traceback.format_exc(limit=5)}
    sys.stdout.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
