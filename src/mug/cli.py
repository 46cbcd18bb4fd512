"""Command-line entry point.

Subcommands: synth, homophily, pretrain, embed, eval, gradcheck.
Exit codes: 0 success, 1 usage, 2 data/validation error, 3 numerical failure.
Every run with outputs writes a resolved-config echo next to them. Each
warning a run raises is printed as one "warning: <message>" line on stderr.
Every fault in an input file (missing, not UTF-8, bad JSON, a bad row, setting
or checkpoint value, a bad synth spec) is a ValueError and exits 2 with
"error: <file>: ..." or, where the fault has a line, "error: <file>:<line>: ...".
A fault in a file's text is a bundle.BundleError, raised by mug.bundle's
readers, by config.read_settings (a value outside its bound too), or by
cmd_synth for a spec; a flag outside its bound is a config.ConfigError. mug
synth writes into a new or empty --out directory only, so no file of an
earlier bundle is left beside its own.

A pretrain or eval flag that sets a setting has the setting's flat config key
as its dest, so the flags and the config file name the same settings; every
other dest is an input or output path. eval --shots k sets per_class_train = k:
the k-shot protocol is the standard one with k train nodes per class. The eval
report's shots column is that k, set by the flag or a config, and 0 when it is
the standard protocol's.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import Dict, Optional

from . import bundle as bio
from . import config as cfgmod
from . import evalkit, fusion, gradsuite, synth
from .hetgraph import class_frequency_baseline, homophily_report
from .rng import SYNTH, RngStream

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


def _resolved(args) -> Dict[str, object]:
    """Defaults < config file < flags, every setting checked against its bound."""
    file_values = cfgmod.parse_config_file(args.config) if args.config else {}
    cfg = cfgmod.resolve(file_values, vars(args))
    cfgmod.check(cfg)
    return cfg


# -- synth ------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfgmod.check({"seed": args.seed})
    if os.path.lexists(args.out) and not (os.path.isdir(args.out) and not os.listdir(args.out)):
        raise ValueError(f"{args.out}: exists and is not an empty directory")
    if args.spec:
        values = bio.read_json(args.spec)   # its faults name the spec already
        try:
            spec = synth.SynthSpec.from_dict(values)
        except ValueError as exc:
            raise bio.BundleError(str(exc), args.spec) from None
    else:
        spec = synth.SynthSpec.from_dict(synth.two_view_spec(centroid_scale=1.0))
    g = synth.generate(spec, RngStream(args.seed, SYNTH))
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
        bio.write_text(args.out, csv_text)
    else:
        print(csv_text, end="")
    return EXIT_OK


# -- pretrain ----------------------------------------------------------------------


def cmd_pretrain(args) -> int:
    stem, _ = os.path.splitext(args.out)
    _check_outputs(args.out, stem + ".trace.csv", _echo_path(args.out))
    cfg = _resolved(args)
    g = bio.load_bundle(args.data)
    trace: list = []
    model = fusion.pretrain(g, cfgmod.filled(cfgmod.TrainConfig(), cfg), trace=trace)
    fusion.save_checkpoint(model, args.out)

    header = "epoch,l_align,l_recon_weighted,l_scatter,total\n"
    bio.write_text(stem + ".trace.csv", header + "".join(
        f"{row['epoch']},{row['l_align']!r},{row['l_recon_weighted']!r},"
        f"{row['l_scatter']!r},{row['total']!r}\n" for row in trace))
    cfgmod.write_echo(cfg, _echo_path(args.out))
    final = trace[-1]["total"] if trace else float("nan")
    print(f"pre-trained {cfg['epochs']} epochs on {args.data}; "
          f"final loss {final:.6f}; checkpoint at {args.out}")
    return EXIT_OK


# -- embed -------------------------------------------------------------------------


def cmd_embed(args) -> int:
    stem, _ = os.path.splitext(args.out)
    _check_outputs(args.out, stem + ".beta.csv", _echo_path(args.out))
    cfgmod.check({"seed": args.seed})
    model = fusion.load_checkpoint(args.model)
    g = bio.load_bundle(args.data)
    z, beta = fusion.embed(model, g, seed=args.seed)

    ids = g.node_ids[g.target_type]
    header = "\t".join(["node_id"] + [f"z{i}" for i in range(z.shape[1])]) + "\n"
    bio.write_text(args.out, header + "".join(
        nid + "\t" + bio.format_floats(row, "\t") + "\n" for nid, row in zip(ids, z)))
    bio.write_text(stem + ".beta.csv", bio.format_floats(beta, ",") + "\n")
    cfgmod.write_echo({"seed": args.seed, "model": args.model, "data": args.data},
                      _echo_path(args.out))
    print(f"embedded {len(ids)} target nodes into {z.shape[1]} dims; "
          f"beta = [{', '.join(f'{b:.4f}' for b in beta)}]")
    return EXIT_OK


# -- eval --------------------------------------------------------------------------


def cmd_eval(args) -> int:
    if args.out:
        _check_outputs(args.out, _echo_path(args.out))
    cfg = _resolved(args)
    spec = cfgmod.filled(evalkit.SplitSpec(), cfg)
    k, standard = spec.per_class_train, evalkit.SplitSpec().per_class_train
    shots = 0 if k == standard else k
    paths: Dict[str, str] = {}   # reports are keyed by bundle name
    for d in args.eval_data:
        name = os.path.basename(os.path.normpath(d)) or d
        if name in paths:
            raise ValueError(f"--eval-data {paths[name]} and {d} share the bundle name '{name}'")
        paths[name] = d
    # the train bundle is only named in the report: its schema must be there, not loaded
    bio.read_text(os.path.join(args.train_data, "schema.json"))
    model = fusion.load_checkpoint(args.model)
    bundles = {name: bio.load_bundle(d) for name, d in paths.items()}
    train_name = os.path.basename(os.path.normpath(args.train_data))
    table = [f"{'eval bundle':<16} {'shots':>5} {'Macro-F1':>16} {'Micro-F1':>16}"]
    rows = ["variant,train_bundle,eval_bundle,shots,macro_mean,macro_std,micro_mean,micro_std"]
    for name, g in bundles.items():
        if g.labels is None:
            warnings.warn(f"bundle '{name}' has no labels; skipped")
            continue
        z, _ = fusion.embed(model, g, seed=cfg["seed"])
        macro, micro = evalkit.evaluate_embedding(z, g.labels, spec)
        table.append(f"{name:<16} {shots:>5} {macro.mean():>8.4f} ± {macro.std():<5.4f} "
                     f"{micro.mean():>8.4f} ± {micro.std():<5.4f}")
        rows.append(f"full,{train_name},{name},{shots},{macro.mean():.6f},{macro.std():.6f},"
                    f"{micro.mean():.6f},{micro.std():.6f}")
    if len(rows) == 1:
        print("error: no labeled eval bundles", file=sys.stderr)
        return EXIT_DATA

    print("\n".join(table))
    csv_text = "\n".join(rows) + "\n"
    if args.out:
        bio.write_text(args.out, csv_text)
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
    pp.set_defaults(fn=cmd_pretrain)

    ep = sub.add_parser("embed", help="frozen-encoder embedding")
    ep.add_argument("--model", required=True)
    ep.add_argument("--data", required=True)
    ep.add_argument("--out", required=True, help="embedding TSV path")
    ep.add_argument("--seed", type=int, default=0)
    ep.set_defaults(fn=cmd_embed)

    vp = sub.add_parser("eval", help="frozen cross-domain / few-shot evaluation")
    vp.add_argument("--model", required=True)
    vp.add_argument("--train-data", required=True,
                    help="bundle the model was pre-trained on; must exist, named in the report")
    vp.add_argument("--eval-data", required=True, nargs="+")
    vp.add_argument("--shots", dest="per_class_train", type=int, choices=(1, 3, 5),
                    help="k-shot protocol: k train nodes per class, other settings as configured")
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
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
