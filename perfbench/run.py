"""End-to-end benchmark of the ``mug`` CLI.

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 20 --trace 0

Run from the repository root. It drives ``mug`` the way a user does: a closed
loop with one client, where each command (homophily, pretrain, embed, eval)
runs in a fresh child process, one at a time, with the BLAS thread count
pinned. The inputs are bundles written by ``gen.py`` from ``--seed``.

One pass runs a workload's commands once, with the set-up command repeated
SETUP_REPS times per bundle. A run makes passes while the next one is
expected to end within ``--seconds`` (at least one) and reports medians over
them. Every command's outputs are checked; a failed check fails the command,
is recorded, and the run goes on.

``--trace 1`` adds one traced pass after the untraced ones: ``child.py``
wraps the ``mug`` functions in spans and the run reports per-layer metrics,
each layer's share of traced self time, and the tracing overhead (traced
``total_s`` minus the untraced median).

Every run writes a record (inputs, environment, fingerprints, per-command
times and check results) to ``.perfbench/runs/`` and prints its path; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import checks
import gen
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")

SETUP_REPS = 3
BLAS_THREADS = 1          # pinned in every child; at most nproc
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0       # a command still running past this is killed


@dataclass(frozen=True)
class Workload:
    bundles: Tuple[gen.BundleSpec, ...]   # trained on the first, applied to the last
    pretrain: Tuple[str, ...]
    eval_args: Tuple[str, ...]
    f1_floor: float
    walk: Optional[Dict[str, int]] = None   # struct-encoder settings; None with --no-cse

    @property
    def epochs(self) -> int:
        return int(self.pretrain[self.pretrain.index("--epochs") + 1])


# The interpreted SGNS makes the default walk settings (~1M pairs x 5 epochs)
# take about an hour per table, so transfer uses a reduced walk.
TRANSFER_WALK = {"walks_per_node": 1, "walk_length": 6, "window": 2, "struct_epochs": 1}

# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    "transfer": Workload(
        bundles=(gen.GRAPH_A, gen.GRAPH_B),
        pretrain=("--epochs", "100"),
        eval_args=("--repeats", "10"),
        f1_floor=0.40,
        walk=TRANSFER_WALK,
    ),
    "dense-views": Workload(
        bundles=(gen.DENSE,),
        pretrain=("--no-cse", "--epochs", "5"),
        eval_args=(),
        f1_floor=0.85,
    ),
    "sparse-views": Workload(
        bundles=(gen.SPARSE,),
        pretrain=("--no-cse", "--epochs", "5"),
        eval_args=(),
        f1_floor=0.85,
    ),
}


# -- child processes ---------------------------------------------------------------


@dataclass
class Op:
    """One command run: its wall time, peak RSS and check results."""

    step: str
    args: List[str]
    out: str = ""            # the command's main output file
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    exit_code: Optional[int] = None
    failures: Optional[List[str]] = None
    trace: Optional[str] = None

    def as_dict(self) -> dict:
        return {"step": self.step, "args": self.args, "wall_s": self.wall_s,
                "cpu_s": self.cpu_s, "rss_mb": self.rss_mb, "exit": self.exit_code,
                "failures": self.failures}


def child_env() -> Dict[str, str]:
    return dict(os.environ, **{var: str(BLAS_THREADS) for var in BLAS_VARS})


def run_command(op: Op, log_path: str, deadline: float) -> None:
    """Run one mug command in a fresh process; fill in wall time and peak RSS."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), op.trace or "-"]
    with open(log_path, "ab") as log:
        log.write(("$ mug " + " ".join(op.args) + "\n").encode())
        log.flush()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + [repr(t0), "--"] + op.args, cwd=ROOT,
                                env=child_env(), stdout=log, stderr=log)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:       # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        op.wall_s = time.perf_counter() - t0
    proc.returncode = op.exit_code = os.waitstatus_to_exitcode(status)
    op.cpu_s = usage.ru_utime + usage.ru_stime
    op.rss_mb = usage.ru_maxrss / 1024.0


# -- one pass ---------------------------------------------------------------------


@dataclass
class Bundle:
    spec: gen.BundleSpec
    path: str
    info: dict


def plan(w: Workload, bundles: Sequence[Bundle], work: str, out: str,
         setup_reps: int) -> List[Op]:
    """The commands of one pass; their outputs go to the pass's own directory."""
    train, apply = bundles[0], bundles[-1]
    ckpt = os.path.join(out, "model.ckpt")
    ops = []
    for b in bundles:
        csv = os.path.join(out, f"homophily-{b.spec.name}.csv")
        ops += [Op("setup", ["homophily", "--data", b.path, "--out", csv], csv)
                for _ in range(setup_reps)]
    pretrain = ["pretrain", "--data", train.path, "--out", ckpt, *w.pretrain]
    if w.walk:
        pretrain += ["--config", os.path.join(work, "walk.cfg")]
    ops.append(Op("pretrain", pretrain, ckpt))
    emb = os.path.join(out, "embed.tsv")
    ops.append(Op("embed", ["embed", "--model", ckpt, "--data", apply.path,
                            "--out", emb], emb))
    csv = os.path.join(out, "eval.csv")
    ops.append(Op("eval", ["eval", "--model", ckpt, "--train-data", train.path,
                           "--eval-data", apply.path, *w.eval_args, "--out", csv], csv))
    return ops


def check(op: Op, w: Workload, bundles: Sequence[Bundle],
          result: dict) -> List[str]:
    """Check one command's outputs; record fingerprints and quality in result."""
    if op.exit_code != 0:
        return [f"exit code {op.exit_code}"]
    apply = bundles[-1]
    if op.step == "setup":
        spec = next(b.spec for b in bundles if b.path == op.args[2])
        return checks.homophily_csv(op.out, len(spec.views))
    if op.step == "pretrain":
        ckpt = op.out
        model, fails = checks.checkpoint(ckpt)
        loss, more = checks.trace_csv(os.path.splitext(ckpt)[0] + ".trace.csv", w.epochs)
        if model is not None:
            result["unified_dim"] = model.unified_dim
            result["checkpoint_sha256"] = checks.sha256(ckpt)
        result["final_loss"] = loss
        return fails + more
    if op.step == "embed":
        out = op.out
        fails = checks.embedding_tsv(out, apply.spec.n_target, result.get("unified_dim", 0))
        fails += checks.beta_csv(os.path.splitext(out)[0] + ".beta.csv",
                                 len(apply.spec.views))
        if not checks.missing(out):
            result["embedding_sha256"] = checks.sha256(out)
        return fails
    macro, fails = checks.eval_csv(op.out, w.f1_floor)
    result["macro_f1"] = macro
    return fails


def run_pass(w: Workload, bundles: Sequence[Bundle], work: str, name: str,
             deadline: float, setup_reps: int = SETUP_REPS,
             traced: bool = False) -> Tuple[List[Op], dict]:
    """Run and check every command of one pass; returns (ops, pass metrics)."""
    out = os.path.join(work, name)
    os.makedirs(out)
    ops = plan(w, bundles, work, out, setup_reps)
    log = os.path.join(work, "commands.log")
    result: dict = {"load_1min": os.getloadavg()[0]}
    for i, op in enumerate(ops):
        if traced:
            op.trace = os.path.join(out, f"{i:02d}-{op.step}.trace.json")
        run_command(op, log, deadline)
        op.failures = check(op, w, bundles, result)
    setup = sum(statistics.median(op.wall_s for op in ops
                                  if op.step == "setup" and op.args[2] == b.path)
                for b in bundles)
    walls = {op.step: op.wall_s for op in ops if op.step != "setup"}
    result.update(
        setup_s=setup,
        pretrain_s=walls["pretrain"],
        apply_s=walls["embed"] + walls["eval"],
        peak_rss_mb=max(op.rss_mb for op in ops),
    )
    result["total_s"] = result["setup_s"] + result["pretrain_s"] + result["apply_s"]
    return ops, result


# -- environment --------------------------------------------------------------------


def git_rev() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    from mug import kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "using_numba": kernels.USING_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "load_1min": os.getloadavg()[0],
    }


# -- the run ------------------------------------------------------------------------


def make_inputs(w: Workload, seed: int, work: str) -> List[Bundle]:
    walk = w.walk or {}
    bundles = []
    for spec in w.bundles:
        g, info = gen.build(spec, seed, os.path.join(work, spec.name))
        info["struct_table_pairs"] = (
            gen.walk_pairs(g, walk["walks_per_node"], walk["walk_length"], walk["window"])
            if walk else 0)
        bundles.append(Bundle(spec, os.path.join(work, spec.name), info))
    if walk:
        with open(os.path.join(work, "walk.cfg"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in walk.items())
    return bundles


def fingerprint_failures(passes: Sequence[dict]) -> List[str]:
    """A fixed seed must give byte-identical checkpoints and embeddings."""
    fails = []
    for key in ("checkpoint_sha256", "embedding_sha256"):
        seen = {p.get(key) for p in passes}
        if len(seen) > 1:
            fails.append(f"{key} differs between passes of one run")
    return fails


END_TO_END = {"setup_s": "s", "pretrain_s": "s", "apply_s": "s", "total_s": "s",
              "peak_rss_mb": "MB", "macro_f1": "score", "success_share": "share"}


def execute(name: str, w: Workload, seed: int, seconds: float, trace: bool,
            work: str) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    os.makedirs(work, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    bundles = make_inputs(w, seed, work)
    record["inputs"] = {b.spec.name: b.info for b in bundles}

    all_ops: List[Op] = []
    passes: List[dict] = []
    last = 0.0
    while not passes or time.monotonic() - start + last <= seconds:
        t = time.monotonic()
        ops, result = run_pass(w, bundles, work, f"pass{len(passes)}", deadline)
        last = time.monotonic() - t
        all_ops += ops
        passes.append(result)
        result["ops"] = [op.as_dict() for op in ops]

    traced = None
    if trace:
        ops, traced = run_pass(w, bundles, work, "traced", deadline, setup_reps=1,
                               traced=True)
        all_ops += ops
        traced["ops"] = [op.as_dict() for op in ops]
        commands = [load_trace(op) for op in ops]
        traced["per_layer"] = per_layer(bundles, ops, commands, traced, passes)

    extra = fingerprint_failures(passes + ([traced] if traced else []))
    if extra:
        all_ops.append(Op("fingerprint", [], failures=extra))
    # A command fails when any of its checks fails.
    attempted, failed = len(all_ops), sum(1 for op in all_ops if op.failures)
    record.update(passes=passes, traced=traced, attempted=attempted, failed=failed,
                  failures=[f"{op.step}: {f}" for op in all_ops for f in op.failures or ()])

    if trace:
        metrics = traced["per_layer"]
        units = {k: unit_of(k) for k in metrics}
    else:
        metrics = {k: statistics.median(p.get(k, math.nan) for p in passes)
                   for k in END_TO_END if k != "success_share"}
        metrics["success_share"] = (attempted - failed) / attempted
        units = END_TO_END
    record["metrics"] = metrics
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "record": record}


def load_trace(op: Op) -> dict:
    """The spans a traced child wrote; none if it was killed before writing."""
    try:
        with open(op.trace, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError:
        op.failures.append("no trace written")
        return {"spans": [], "counts": {}, "tables": [], "spawn": 0.0, "main_start": 0.0}


def per_layer(bundles: Sequence[Bundle], ops: Sequence[Op],
              commands: Sequence[dict], traced: dict, passes: Sequence[dict]) -> dict:
    m = layers.per_layer_metrics(commands)
    pretrain = [c for op, c in zip(ops, commands) if op.step == "pretrain"]
    for layer, share in layers.layer_shares(pretrain).items():
        m[f"pretrain_share.{layer}"] = share
    densities = [d for b in bundles for d in b.info["view_density"].values()]
    m["hetgraph.view_density"] = sum(densities) / len(densities)
    m["trace.total_s"] = traced["total_s"]
    m["trace.overhead_s"] = traced["total_s"] - statistics.median(p["total_s"]
                                                                  for p in passes)
    return m


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.startswith(("share.", "pretrain_share.")) or metric.endswith(
            ("_share", "density")):
        return "share"
    return "count"


def _terminate(signum, frame):
    raise SystemExit(128 + signum)     # unwinds through the child and work-dir cleanup


def main(argv: Optional[Sequence[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not os.path.isfile(os.path.join(ROOT, "src", "mug", "cli.py")):
        print(f"error: no mug sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    os.makedirs(os.path.join(STATE, "runs"), exist_ok=True)
    stem = os.path.join(STATE, "runs", f"{args.workload}-seed{args.seed}-"
                                       f"trace{args.trace}-{time.time_ns()}")
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE)
    try:
        out = execute(args.workload, WORKLOADS[args.workload], args.seed,
                      args.seconds, bool(args.trace), work)
    finally:
        if os.path.isfile(os.path.join(work, "commands.log")):
            shutil.copy(os.path.join(work, "commands.log"), stem + ".log")
        shutil.rmtree(work, ignore_errors=True)

    record = out.pop("record")
    if args.trace:
        print(f"layer shares of traced self time ({args.workload}):")
        for key, v in sorted(record["metrics"].items()):
            if key.startswith(("share.", "pretrain_share.")):
                print(f"  {key:<28} {v:7.3f}")
    for f in record["failures"]:
        print(f"FAILED {f}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"record: {os.path.relpath(stem, ROOT)}.json (command output in .log)")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
