"""Command line interface: learn, enumerate, encode, decode, eval.

Exit codes: 0 success, 2 parse failure (bad syntax or unreadable path),
3 infeasible model, 4 capacity ceiling, 5 vocabulary mismatch, 1 anything
else.  Set ALP_LOG=info for stage logging or ALP_LOG=trace to also stream
one TSV line per improving solver iteration to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from fractions import Fraction
from pathlib import Path

from .candidates import GenerationConfig
from .errors import (
    AlpError,
    CapacityError,
    InfeasibleError,
    KbSyntaxError,
    VocabularyError,
)
from .kb import Fact, KnowledgeBase, parse_kb_document, serialize_kb
from .logic import Alp, apply_program, parse_program, reconstruct, serialize_program
from .model import dump_model
from .pipeline import learn, prepare_pool, run_report
from .solver import SearchConfig

log = logging.getLogger("alp")

GRID_LENGTHS = (2, 3)
GRID_GAMMAS = ("0.3", "0.5", "0.7")


def _gen_config(args) -> GenerationConfig:
    return GenerationConfig(
        max_encoder_body_len=args.max_enc_len,
        max_decoder_body_len=args.max_dec_len,
        max_head_vars=args.max_head_vars,
        allow_disjunction=not args.no_disjunction,
        allow_negation=args.allow_negation,
        max_candidates=args.max_candidates,
    )


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        alpha=args.alpha,
        beta=args.beta,
        iterations=args.iterations,
        fail_limit=args.fail_limit,
        time_limit=args.time_limit,
        seed=args.seed,
    )


def _read_document(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_kb_document(text)


def _progress_fn():
    if os.environ.get("ALP_LOG", "").lower() not in ("trace", "debug"):
        return None

    def emit(iteration, objective, elapsed_ms, n_ec, n_dc):
        print(
            f"{iteration}\t{objective}\t{elapsed_ms:.1f}\t{n_ec}\t{n_dc}",
            file=sys.stderr,
        )

    return emit


def _facts_text(facts) -> str:
    return serialize_kb(KnowledgeBase.from_facts(facts))


def _parse_gamma(text: str) -> Fraction:
    try:
        gamma = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--gamma must be a rational number, got {text!r}")
    if gamma <= 0:
        raise ValueError(f"--gamma must be positive, got {text}")
    return gamma


def cmd_learn(args) -> int:
    document = _read_document(args.kb)
    gen_config = _gen_config(args)
    search_config = _search_config(args)
    if args.grid:
        return _run_grid(args, document, gen_config, search_config)
    gamma = _parse_gamma(args.gamma)
    result = learn(
        document.kb, document.modes, gen_config, search_config, gamma,
        progress=_progress_fn(),
    )
    report = run_report(result, gen_config, search_config, gamma)
    _write_outputs(args, result, report)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"objective {result.solution.objective} "
            f"({result.loss['missing']} missing, {result.loss['false']} false), "
            f"{len(result.alp.encoder.clauses)} encoder / "
            f"{len(result.alp.decoder.clauses)} decoder clauses"
        )
    return 0


def _write_outputs(args, result, report) -> None:
    Path(args.out_model).write_text(serialize_program(result.alp), encoding="utf-8")
    Path(args.out_latent).write_text(_facts_text(result.latent), encoding="utf-8")
    Path(args.report).write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    if args.dump_model:
        Path(args.dump_model).write_text(dump_model(result.model), encoding="utf-8")
    log.info("wrote %s, %s, %s", args.out_model, args.out_latent, args.report)


def _suffixed(path: str, tag: str) -> str:
    p = Path(path)
    return str(p.with_name(f"{p.stem}-{tag}{p.suffix}"))


def _run_grid(args, document, gen_config, search_config) -> int:
    from dataclasses import replace

    for enc_len in GRID_LENGTHS:
        for dec_len in GRID_LENGTHS:
            for gamma_text in GRID_GAMMAS:
                tag = f"enc{enc_len}-dec{dec_len}-g{gamma_text}"
                cell_gen = replace(
                    gen_config,
                    max_encoder_body_len=enc_len,
                    max_decoder_body_len=dec_len,
                )
                gamma = Fraction(gamma_text)
                try:
                    result = learn(
                        document.kb, document.modes, cell_gen, search_config, gamma
                    )
                except (InfeasibleError, CapacityError) as exc:
                    status = (
                        "infeasible" if isinstance(exc, InfeasibleError) else "capacity"
                    )
                    report = {"schema": 1, "status": status, "detail": str(exc)}
                    Path(_suffixed(args.report, tag)).write_text(
                        json.dumps(report, indent=2) + "\n", encoding="utf-8"
                    )
                    print(f"{tag}\t{status}")
                    continue
                report = run_report(result, cell_gen, search_config, gamma)
                report["status"] = "ok"
                Path(_suffixed(args.report, tag)).write_text(
                    json.dumps(report, indent=2) + "\n", encoding="utf-8"
                )
                Path(_suffixed(args.out_model, tag)).write_text(
                    serialize_program(result.alp), encoding="utf-8"
                )
                Path(_suffixed(args.out_latent, tag)).write_text(
                    _facts_text(result.latent), encoding="utf-8"
                )
                print(f"{tag}\tobjective {result.solution.objective}")
    return 0


def cmd_enumerate(args) -> int:
    document = _read_document(args.kb)
    gen_config = _gen_config(args)
    encoders, decoders, report, counts = prepare_pool(
        document.kb, document.modes, gen_config
    )
    lines = ["#encoder"]
    lines.extend(str(c.clause) for c in encoders)
    lines.append("#decoder")
    lines.extend(str(c.clause) for c in decoders)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    tsv = ["id\tkind\tweight\tconsequences"]
    for i, c in enumerate(encoders):
        tsv.append(f"ec_{i}\tencoder\t{c.weight}\t{c.weight}")
    for j, c in enumerate(decoders):
        tsv.append(f"dc_{j}\tdecoder\t{c.weight}\t{c.weight}")
    if args.tsv:
        Path(args.tsv).write_text("\n".join(tsv) + "\n", encoding="utf-8")
    log.info("pruning: %s", report.counters())
    return 0


def _load_model(path: str) -> Alp:
    return parse_program(Path(path).read_text(encoding="utf-8"))


def _model_predicates(alp: Alp) -> dict[tuple[str, int], object]:
    known = {}
    for program in (alp.encoder, alp.decoder):
        for clause in program.clauses:
            for lit in (clause.head, *clause.body):
                known[(lit.predicate.name, lit.predicate.arity)] = lit.predicate
    return known


def _remap_facts(facts, known: dict, role: str) -> frozenset[Fact]:
    unknown = sorted(
        f"{f.predicate.name}/{f.predicate.arity}"
        for f in facts
        if (f.predicate.name, f.predicate.arity) not in known
    )
    if unknown:
        raise VocabularyError(f"{role} predicates unknown to the model: {unknown}")
    return frozenset(
        Fact(known[(f.predicate.name, f.predicate.arity)], f.args) for f in facts
    )


def cmd_encode(args) -> int:
    alp = _load_model(args.model)
    kb = _read_document(args.kb).kb
    known = _model_predicates(alp)
    facts = _remap_facts(kb.facts | kb.background, known, "knowledge base")
    latent = apply_program(alp.encoder, facts)
    text = _facts_text(latent)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_decode(args) -> int:
    alp = _load_model(args.model)
    latent_kb = _read_document(args.latent).kb
    latents = {
        (p.name, p.arity): p
        for p in alp.latent_vocabulary | alp.encoder.head_predicates()
    }
    facts = _remap_facts(latent_kb.facts, latents, "latent")
    recon = apply_program(alp.decoder, facts)
    text = _facts_text(recon)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_eval(args) -> int:
    alp = _load_model(args.model)
    document = _read_document(args.kb)
    known = _model_predicates(alp)
    kb_facts = _remap_facts(
        document.kb.facts, known, "knowledge base"
    )
    background = _remap_facts(document.kb.background, known, "background")
    kb = KnowledgeBase.from_facts(kb_facts, background)
    recon = reconstruct(alp, kb)
    missing, false = len(kb.facts - recon), len(recon - kb.facts)
    per_predicate = {}
    for p in sorted(
        {f.predicate for f in kb.facts} | {f.predicate for f in recon},
        key=lambda p: (p.name, p.arity),
    ):
        kb_p = {f for f in kb.facts if f.predicate == p}
        recon_p = {f for f in recon if f.predicate == p}
        per_predicate[f"{p.name}/{p.arity}"] = {
            "missing": len(kb_p - recon_p),
            "false": len(recon_p - kb_p),
        }
    payload = {
        "loss": missing + false,
        "missing": missing,
        "false": false,
        "per_predicate": per_predicate,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"loss {missing + false} (missing {missing}, false {false})")
        for name, counts in per_predicate.items():
            print(f"  {name}: missing {counts['missing']}, false {counts['false']}")
    return 0


def _add_gen_options(sub):
    lengths = range(1, 5)
    sub.add_argument(
        "--max-enc-len", type=int, choices=lengths, default=2, dest="max_enc_len"
    )
    sub.add_argument(
        "--max-dec-len", type=int, choices=lengths, default=2, dest="max_dec_len"
    )
    sub.add_argument("--max-head-vars", type=int, default=2, dest="max_head_vars")
    sub.add_argument("--allow-negation", action="store_true")
    sub.add_argument("--no-disjunction", action="store_true")
    sub.add_argument("--max-candidates", type=int, default=200_000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alp",
        description="Learn auto-encoding logic programs from relational facts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn_p = sub.add_parser("learn", help="learn an encoder/decoder pair")
    learn_p.add_argument("kb")
    _add_gen_options(learn_p)
    learn_p.add_argument("--gamma", default="0.5", help="compression parameter")
    learn_p.add_argument("--alpha", type=float, default=70.0)
    learn_p.add_argument("--beta", type=float, default=90.0)
    learn_p.add_argument("--iterations", type=int, default=500)
    learn_p.add_argument("--fail-limit", type=int, default=10_000, dest="fail_limit")
    learn_p.add_argument("--time-limit", type=float, default=600.0, dest="time_limit")
    learn_p.add_argument("--seed", type=int, default=0)
    learn_p.add_argument("--out-model", default="model.alp", dest="out_model")
    learn_p.add_argument("--out-latent", default="latent.facts", dest="out_latent")
    learn_p.add_argument("--report", default="report.json")
    learn_p.add_argument("--dump-model", default=None, dest="dump_model")
    learn_p.add_argument("--grid", action="store_true")
    learn_p.add_argument("--json", action="store_true")
    learn_p.set_defaults(func=cmd_learn)

    enum_p = sub.add_parser("enumerate", help="dump the candidate pool")
    enum_p.add_argument("kb")
    _add_gen_options(enum_p)
    enum_p.add_argument("--out", default=None)
    enum_p.add_argument("--tsv", default=None)
    enum_p.set_defaults(func=cmd_enumerate)

    encode_p = sub.add_parser("encode", help="map a KB to its latent facts")
    encode_p.add_argument("model")
    encode_p.add_argument("kb")
    encode_p.add_argument("--out", default=None)
    encode_p.set_defaults(func=cmd_encode)

    decode_p = sub.add_parser("decode", help="map latent facts back to data")
    decode_p.add_argument("model")
    decode_p.add_argument("latent")
    decode_p.add_argument("--out", default=None)
    decode_p.set_defaults(func=cmd_decode)

    eval_p = sub.add_parser("eval", help="reconstruction loss of a model on a KB")
    eval_p.add_argument("model")
    eval_p.add_argument("kb")
    eval_p.add_argument("--json", action="store_true")
    eval_p.set_defaults(func=cmd_eval)
    return parser


def _configure_logging():
    level_name = os.environ.get("ALP_LOG", "").lower()
    level = {
        "trace": logging.DEBUG,
        "debug": logging.DEBUG,
        "info": logging.INFO,
    }.get(level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KbSyntaxError, OSError, ValueError) as exc:
        print(f"alp: parse failure: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"alp: infeasible: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"alp: capacity: {exc}", file=sys.stderr)
        return 4
    except VocabularyError as exc:
        print(f"alp: vocabulary: {exc}", file=sys.stderr)
        return 5
    except AlpError as exc:
        print(f"alp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
