"""Command line interface: learn, enumerate, encode, decode, eval.

``encode``, ``decode`` and ``eval`` evaluate each file's facts as they are,
as the library does: a predicate is its name and arity, so the ``#background``
lines of a model and of a fact file need not agree.  One check first names
the facts' predicates the model does not mention; ``eval`` skips arity-0 facts.

Exit codes: 0 success, 2 parse failure (bad syntax, an unreadable path, or
an output path ``learn`` cannot write, found before it learns), 3
infeasible model, 4 capacity ceiling, 5 vocabulary mismatch, 1 anything
else.  Set ALP_LOG=info to log the files written and ``enumerate``'s
pruning counts, or ALP_LOG=trace to also stream one TSV line per improving
solver iteration to stderr; ALP_LOG=debug is the same as trace.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import os
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

from .candidates import GenerationConfig
from .errors import (
    AlpError,
    CapacityError,
    InfeasibleError,
    KbSyntaxError,
    VocabularyError,
)
from .kb import KnowledgeBase, parse_kb_document, serialize_kb
from .logic import Alp, apply_program, encode, loss_by_predicate, parse_program, serialize_program
from .model import dump_model
from .pipeline import learn, prepare_pool, run_report
from .solver import SearchConfig

log = logging.getLogger("alp")

GRID_LENGTHS = (2, 3)
GRID_GAMMAS = ("0.3", "0.5", "0.7")


def _config(cls, args):
    """A ``GenerationConfig`` or ``SearchConfig`` from the options named
    after its fields."""
    return cls(**{name: getattr(args, name) for name in cls._fields})


def _write_out(path: str | None, text: str) -> None:
    """Write ``text`` to the ``--out`` path, or to stdout without one."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _tagged(path: str, tag: str | None) -> Path:
    """The path, its stem suffixed with a grid cell's ``tag`` if given."""
    p = Path(path)
    return p.with_name(f"{p.stem}-{tag}{p.suffix}") if tag else p


def _check_outputs(args, tags=(None,)) -> None:
    """Raise, before any learning, the ``OSError`` that writing an output of
    the run, or of each grid cell by its ``tag``, would raise: for a missing
    or non-directory parent, a directory, or no write permission."""
    names = [n for n in (args.report, args.out_model, args.out_latent, args.dump_model) if n]
    for p in [_tagged(name, tag) for tag in tags for name in names]:
        if p.is_dir():
            code = errno.EISDIR
        elif not p.parent.is_dir():
            code = errno.ENOTDIR if p.parent.exists() else errno.ENOENT
        elif not os.access(p if p.exists() else p.parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise OSError(code, os.strerror(code), str(p))


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
    if args.grid and args.dump_model:
        raise ValueError(
            "--dump-model cannot be used with --grid, which learns a model per cell"
        )
    document = _read_document(args.kb)
    gen_config = _config(GenerationConfig, args)
    search_config = _config(SearchConfig, args)
    if args.grid:
        return _run_grid(args, document, gen_config, search_config)
    gamma = _parse_gamma(args.gamma)
    _check_outputs(args)
    result = learn(
        document.kb, document.modes, gen_config, search_config, gamma,
        progress=_progress_fn(),
    )
    report = run_report(result, gen_config, search_config, gamma)
    _write_outputs(args, report, result)
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


def _write_outputs(args, report, result=None, tag=None) -> None:
    """Write the run report and a learned result's program and latent facts.

    A grid cell suffixes each path with its ``tag``; only a single run
    writes ``--dump-model`` (``cmd_learn`` rejects it with ``--grid``) and
    logs what it wrote.
    """

    def write(path: str, text: str) -> None:
        _tagged(path, tag).write_text(text, encoding="utf-8")

    write(args.report, json.dumps(report, indent=2) + "\n")
    if result is None:
        return
    write(args.out_model, serialize_program(result.alp))
    write(args.out_latent, _facts_text(result.latent))
    if tag is None:
        if args.dump_model:
            write(args.dump_model, dump_model(result.model))
        log.info("wrote %s, %s, %s", args.out_model, args.out_latent, args.report)


def _run_grid(args, document, gen_config, search_config) -> int:
    cells = list(product(GRID_LENGTHS, GRID_LENGTHS, GRID_GAMMAS))
    tags = [f"enc{enc_len}-dec{dec_len}-g{gamma_text}" for enc_len, dec_len, gamma_text in cells]
    _check_outputs(args, tags)
    for tag, (enc_len, dec_len, gamma_text) in zip(tags, cells):
        cell_gen = gen_config._replace(max_encoder_body_len=enc_len, max_decoder_body_len=dec_len)
        gamma = Fraction(gamma_text)
        try:
            result = learn(document.kb, document.modes, cell_gen, search_config, gamma)
        except (InfeasibleError, CapacityError) as exc:
            status = "infeasible" if isinstance(exc, InfeasibleError) else "capacity"
            _write_outputs(
                args, {"schema": 1, "status": status, "detail": str(exc)}, tag=tag
            )
            print(f"{tag}\t{status}")
            continue
        report = run_report(result, cell_gen, search_config, gamma)
        report["status"] = "ok"
        _write_outputs(args, report, result, tag)
        print(f"{tag}\tobjective {result.solution.objective}")
    return 0


def cmd_enumerate(args) -> int:
    document = _read_document(args.kb)
    encoders, decoders, pruning, _ = prepare_pool(
        document.kb, document.modes, _config(GenerationConfig, args)
    )
    lines = ["#encoder", *(c.text for c in encoders)]
    lines += ["#decoder", *(c.text for c in decoders)]
    _write_out(args.out, "\n".join(lines) + "\n")
    if args.tsv:
        tsv = ["id\tkind\tweight\tconsequences"]
        tsv += [f"ec_{i}\tencoder\t{c.weight}\t{c.weight}" for i, c in enumerate(encoders)]
        tsv += [f"dc_{j}\tdecoder\t{c.weight}\t{c.weight}" for j, c in enumerate(decoders)]
        _write_out(args.tsv, "\n".join(tsv) + "\n")
    log.info("pruning: %s", pruning)
    return 0


def _load_model(path: str) -> Alp:
    return parse_program(Path(path).read_text(encoding="utf-8"))


def _model_predicates(alp: Alp) -> frozenset:
    """Every predicate a clause of the model mentions."""
    return alp.latent_vocabulary | alp.encoder.body_predicates() | alp.decoder.head_predicates()


def _check_vocabulary(predicates, known, role: str) -> None:
    """Raise ``VocabularyError`` naming the predicates outside ``known``."""
    unknown = sorted(str(p) for p in predicates if p not in known)
    if unknown:
        raise VocabularyError(f"{role} predicates unknown to the model: {unknown}")


def cmd_encode(args) -> int:
    alp = _load_model(args.model)
    kb = _read_document(args.kb).kb
    _check_vocabulary(kb.rows, _model_predicates(alp), "knowledge base")
    _write_out(args.out, _facts_text(encode(alp, kb)))
    return 0


def cmd_decode(args) -> int:
    alp = _load_model(args.model)
    latent = _read_document(args.latent).kb
    _check_vocabulary(latent.rows, alp.latent_vocabulary, "latent")
    _write_out(args.out, _facts_text(apply_program(alp.decoder, latent.facts)))
    return 0


def cmd_eval(args) -> int:
    alp = _load_model(args.model)
    kb = _read_document(args.kb).kb
    # No decoder head is arity 0 (it would share no variable with its body),
    # so such facts are missing from every reconstruction, as learn counts
    # them, not a vocabulary mismatch.
    checked = (p for p in kb.rows if p.arity)
    _check_vocabulary(checked, _model_predicates(alp), "knowledge base")
    tally = loss_by_predicate(alp, kb)  # (missing, false) per predicate
    missing = sum(m for m, _ in tally.values())
    false = sum(f for _, f in tally.values())
    per_predicate = {
        str(p): {"missing": tally[p][0], "false": tally[p][1]}
        for p in sorted(tally)
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
    config = GenerationConfig()
    sub.add_argument(
        "--max-enc-len", type=int, choices=lengths,
        default=config.max_encoder_body_len, dest="max_encoder_body_len",
    )
    sub.add_argument(
        "--max-dec-len", type=int, choices=lengths,
        default=config.max_decoder_body_len, dest="max_decoder_body_len",
    )
    sub.add_argument("--max-head-vars", type=int, default=config.max_head_vars)
    sub.add_argument("--allow-negation", action="store_true")
    sub.add_argument("--no-disjunction", action="store_false", dest="allow_disjunction")
    sub.add_argument("--max-candidates", type=int, default=config.max_candidates)


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
    for name, default in SearchConfig._field_defaults.items():  # --alpha ... --seed
        learn_p.add_argument(f"--{name.replace('_', '-')}", type=type(default), default=default)
    learn_p.add_argument("--out-model", default="model.alp")
    learn_p.add_argument("--out-latent", default="latent.facts")
    learn_p.add_argument("--report", default="report.json")
    learn_p.add_argument("--dump-model")
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
