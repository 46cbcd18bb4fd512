"""Command-line entry point.

Subcommands: synth, homophily, pretrain, embed, eval, gradcheck.
Exit codes: 0 success, 1 usage, 2 data/validation error, 3 numerical failure.
Every run with outputs writes a resolved-config echo next to them. Each
warning a run raises is printed as one "warning: <message>" line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from typing import Dict, Optional

from . import bundle as bio
from . import config as cfgmod
from . import evalkit, fusion, gradsuite, synth
from .hetgraph import class_frequency_baseline, homophily_report
from .rng import RngStream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _echo_path(out_path: str) -> str:
    stem, _ = os.path.splitext(out_path)
    return stem + ".config.txt"


def _check_outputs(*paths: str) -> None:
    """Refuse, before any work, an output path that is a directory or has no parent."""
    for path in paths:
        if os.path.isdir(path):
            raise ValueError(f"{path}: is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{path}: parent directory does not exist")


def _resolved(args, flag_keys: Dict[str, str]) -> Dict[str, object]:
    file_values = cfgmod.parse_config_file(args.config) if getattr(args, "config", None) else {}
    flags = {key: getattr(args, attr) for attr, key in flag_keys.items()}
    return cfgmod.resolve(file_values, flags)


# -- synth ------------------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.spec:
        try:
            raw = json.loads(bio.read_text(args.spec))
        except json.JSONDecodeError as exc:
            raise bio.MalformedRowError(f"invalid JSON: {exc.msg}", args.spec,
                                        exc.lineno) from None
    else:
        raw = synth.two_view_spec(centroid_scale=1.0)
    spec = synth.SynthSpec.from_dict(raw)
    g = synth.generate(spec, RngStream(args.seed))
    bio.save_bundle(g, args.out)
    cfg = {"seed": args.seed, "spec": args.spec or "<built-in two-view default>"}
    cfgmod.write_echo(cfg, os.path.join(args.out, "synth.config.txt"))
    print(f"wrote bundle with {g.num_nodes} nodes, "
          f"{sum(len(e) for e in g.edges.values())} edges, "
          f"{len(g.metapaths)} meta-paths to {args.out}")
    return EXIT_OK


# -- homophily ----------------------------------------------------------------------


def cmd_homophily(args) -> int:
    if args.out:
        _check_outputs(args.out)
    g = bio.load_bundle(args.data)
    if g.labels is None:
        print(f"error: bundle {args.data} has no labels.tsv", file=sys.stderr)
        return EXIT_DATA
    ratios, avg = homophily_report(g)
    baseline = class_frequency_baseline(g.labels)
    print(f"{'meta-path':<12} homophily")
    for name, r in ratios.items():
        print(f"{name:<12} {'undefined (no edges)' if r is None else f'{r:.4f}'}")
    print(f"{'average':<12} {'undefined' if avg is None else f'{avg:.4f}'}")
    print(f"{'baseline':<12} {baseline:.4f}  (label-blind wiring)")

    lines = ["metapath,homophily"]
    lines += [f"{name},{'' if r is None else f'{r:.6f}'}" for name, r in ratios.items()]
    lines.append(f"average,{'' if avg is None else f'{avg:.6f}'}")
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        print(csv_text, end="")
    return EXIT_OK


# -- pretrain ----------------------------------------------------------------------


_PRETRAIN_FLAGS = {"seed": "seed", "epochs": "epochs", "no_cse": "no_cse",
                   "no_align": "no_align", "no_scatter": "no_scatter"}


def cmd_pretrain(args) -> int:
    stem, _ = os.path.splitext(args.out)
    _check_outputs(args.out, stem + ".trace.csv", _echo_path(args.out))
    cfg = _resolved(args, _PRETRAIN_FLAGS)
    train_cfg = cfgmod.to_train_config(cfg)
    train_cfg.validate()
    g = bio.load_bundle(args.data)
    trace: list = []
    model = fusion.pretrain(g, train_cfg, trace=trace)
    fusion.save_checkpoint(model, args.out)

    with open(stem + ".trace.csv", "w", encoding="utf-8") as fh:
        fh.write("epoch,l_align,l_recon_weighted,l_scatter,total\n")
        for row in trace:
            fh.write(f"{row['epoch']},{row['l_align']!r},{row['l_recon_weighted']!r},"
                     f"{row['l_scatter']!r},{row['total']!r}\n")
    cfgmod.write_echo(cfg, _echo_path(args.out))
    final = trace[-1]["total"] if trace else float("nan")
    print(f"pre-trained {cfg['epochs']} epochs on {args.data}; "
          f"final loss {final:.6f}; checkpoint at {args.out}")
    return EXIT_OK


# -- embed -------------------------------------------------------------------------


def cmd_embed(args) -> int:
    stem, _ = os.path.splitext(args.out)
    _check_outputs(args.out, stem + ".beta.csv", _echo_path(args.out))
    model = fusion.load_checkpoint(args.model)
    g = bio.load_bundle(args.data)
    z, beta = fusion.embed(model, g, seed=args.seed)

    ids = g.node_ids[g.target_type]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("node_id\t" + "\t".join(f"z{i}" for i in range(z.shape[1])) + "\n")
        for nid, row in zip(ids, z):
            fh.write(nid + "\t" + "\t".join(repr(float(v)) for v in row) + "\n")
    with open(stem + ".beta.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(repr(float(b)) for b in beta) + "\n")
    cfgmod.write_echo({"seed": args.seed, "model": args.model, "data": args.data},
                      _echo_path(args.out))
    print(f"embedded {len(ids)} target nodes into {z.shape[1]} dims; "
          f"beta = [{', '.join(f'{b:.4f}' for b in beta)}]")
    return EXIT_OK


# -- eval --------------------------------------------------------------------------


_EVAL_FLAGS = {"seed": "seed", "repeats": "repeats"}


def cmd_eval(args) -> int:
    if args.out:
        _check_outputs(args.out, _echo_path(args.out))
    cfg = _resolved(args, _EVAL_FLAGS)
    spec = cfgmod.to_split_spec(cfg, shots=args.shots or 0)
    paths: Dict[str, str] = {}   # reports are keyed by bundle name
    for d in args.eval_data:
        name = os.path.basename(os.path.normpath(d)) or d
        if name in paths:
            raise ValueError(f"--eval-data {paths[name]} and {d} share the bundle name '{name}'")
        paths[name] = d
    model = fusion.load_checkpoint(args.model)
    bundles = {name: bio.load_bundle(d) for name, d in paths.items()}
    train_name = os.path.basename(os.path.normpath(args.train_data))
    reports = evalkit.cross_domain_eval(model, bundles, spec,
                                        train_bundle=train_name,
                                        embed_seed=cfg["seed"])
    if not reports:
        print("error: no labeled eval bundles", file=sys.stderr)
        return EXIT_DATA

    print(f"{'eval bundle':<16} {'shots':>5} {'Macro-F1':>16} {'Micro-F1':>16}")
    for r in reports:
        print(f"{r.eval_bundle:<16} {r.shots:>5} "
              f"{r.macro_mean:>8.4f} ± {r.macro_std:<5.4f} "
              f"{r.micro_mean:>8.4f} ± {r.micro_std:<5.4f}")
    csv_text = evalkit.CSV_HEADER + "\n" + "\n".join(r.csv_row() for r in reports) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        cfgmod.write_echo(cfg, _echo_path(args.out))
    else:
        print(csv_text, end="")
    return EXIT_OK


# -- gradcheck ----------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    results = gradsuite.run_suite(instances=args.instances, seed=args.seed)
    failures = 0
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(f"{status}  {res.name:<24} max rel err {res.max_rel_err:.2e} "
              f"over {res.instances} instances (tol {gradsuite.TOLERANCE:.0e})")
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} gradient checks passed")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


# -- wiring -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mug", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic bundle")
    sp.add_argument("--spec", help="JSON generator spec (omit for the built-in default)")
    sp.add_argument("--out", required=True, help="output bundle directory")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_synth)

    hp = sub.add_parser("homophily", help="per-view homophily ratios")
    hp.add_argument("--data", required=True, help="bundle directory")
    hp.add_argument("--out", help="CSV output path (default: print)")
    hp.set_defaults(fn=cmd_homophily)

    pp = sub.add_parser("pretrain", help="self-supervised pre-training")
    pp.add_argument("--data", required=True)
    pp.add_argument("--config", help="key=value config file")
    pp.add_argument("--out", required=True, help="checkpoint path")
    pp.add_argument("--seed", type=int, default=None)
    pp.add_argument("--epochs", type=int, default=None)
    pp.add_argument("--no-cse", dest="no_cse", action="store_const", const=True,
                    default=None, help="ablate contextual structural encoding")
    pp.add_argument("--no-align", dest="no_align", action="store_const", const=True,
                    default=None, help="drop the alignment loss, freeze its params")
    pp.add_argument("--no-scatter", dest="no_scatter", action="store_const",
                    const=True, default=None, help="drop the scattering loss")
    pp.set_defaults(fn=cmd_pretrain)

    ep = sub.add_parser("embed", help="frozen-encoder embedding")
    ep.add_argument("--model", required=True)
    ep.add_argument("--data", required=True)
    ep.add_argument("--out", required=True, help="embedding TSV path")
    ep.add_argument("--seed", type=int, default=0)
    ep.set_defaults(fn=cmd_embed)

    vp = sub.add_parser("eval", help="frozen cross-domain / few-shot evaluation")
    vp.add_argument("--model", required=True)
    vp.add_argument("--train-data", required=True)
    vp.add_argument("--eval-data", required=True, nargs="+")
    vp.add_argument("--shots", type=int, choices=(1, 3, 5))
    vp.add_argument("--config", help="key=value config file")
    vp.add_argument("--repeats", type=int, default=None)
    vp.add_argument("--seed", type=int, default=None)
    vp.add_argument("--out", help="report CSV path (default: print)")
    vp.set_defaults(fn=cmd_eval)

    gp = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    gp.add_argument("--instances", type=int, default=20)
    gp.add_argument("--seed", type=int, default=0)
    gp.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.fn(args)
        except fusion.DivergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except (bio.BundleError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
