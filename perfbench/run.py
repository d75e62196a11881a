"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cora-fullgraph --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` makes one untraced pass and prints the end-to-end metrics.
``--trace 1`` makes an untraced and a traced pass over the same inputs and
prints the per-layer metrics, with ``trace.overhead_frac`` comparing the
two.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when
every check passed, 1 when one failed, 2 when ``src/repro`` is missing.
"""

import os

# Pinned before numpy loads, because OpenBLAS reads these once, at load.
# One BLAS thread, as the process runs on one CPU (``_pin_to_one_cpu``).
BLAS_THREADS = 1
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
SPANS = os.path.join(ROOT, ".bench_out")


def _pin_to_one_cpu():
    """Run this thread, and every thread it starts later, on one CPU; returns it.

    The client waits for each reply, so at most one thread is busy at a time
    and this takes no parallelism away.  It keeps each hand-off between the
    client and the serving queue's worker on that CPU: unpinned, the two
    threads woke each other across CPUs, and on a 2-vCPU virtual machine a
    cora-fullgraph run raised about 1,700 more cross-CPU interrupts, each of
    which the host has to deliver.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def _percentile_ms(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) * 1000.0


def _end_to_end(run) -> dict:
    """The end-to-end metrics; a part that faulted leaves its metrics out."""
    metrics = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if run.generate_s and run.deploy_s:
        metrics["setup_s"] = statistics.median(run.generate_s) + statistics.median(run.deploy_s)
    if run.outcomes:
        metrics["pipeline_s"] = statistics.median(run.pipeline_s)
        metrics["probe_acc"] = run.outcomes[0].probe_acc
    server = run.server
    if server is not None and server.block_rates:
        metrics["serve_rps"] = server.rps
        metrics["graph_p50_ms"] = _percentile_ms(server.graph_latency_s, 50)
        metrics["node_p50_ms"] = _percentile_ms(server.node_latency_s, 50)
    return metrics


def _per_layer(tracer, sessions, traced, untraced) -> dict:
    t = tracer
    operand_calls = t.calls("graph.operand_s")
    blocks = t.values.get("graph.block_nodes", [])
    arena_hits = sum(a.hits for a in t.arenas.values())
    arena_takes = arena_hits + sum(a.misses for a in t.arenas.values())
    ops = [row for session in sessions for row in session.op_stats(group_backward=True)]
    epochs = traced.outcomes[0].epoch_seconds
    server = traced.server
    return {
        "graph.generate_s": t.seconds("graph.generate_s"),
        "graph.sample_s": t.seconds("graph.sample_s"),
        "graph.sample_blocks": float(t.calls("graph.sample_s")),
        "graph.block_nodes_mean": statistics.fmean(blocks) if blocks else 0.0,
        "graph.augment_s": t.seconds("graph.augment_s"),
        "graph.operand_s": t.seconds("graph.operand_s"),
        "graph.operand_hit_ratio": (
            1.0 - len(t.values.get("graph.operand_misses", [])) / operand_calls
            if operand_calls else 0.0
        ),
        "graph.batch_s": t.seconds("graph.batch_s"),
        "nn.backward_s": t.seconds("nn.backward_s"),
        "nn.optim_s": t.seconds("nn.optim_s"),
        "nn.segment_s": t.seconds("nn.segment_s"),
        "nn.spmm_s": sum(s.seconds for s in ops if s.name in ("graph.spmm", "graph.spmm_linear")),
        "nn.op_bytes": float(sum(s.bytes_touched for s in ops)),
        "nn.arena_hit_ratio": arena_hits / arena_takes if arena_takes else 0.0,
        "gnn.forward_s": t.seconds("gnn.forward_s"),
        "gnn.infer_s": t.seconds("gnn.infer_s"),
        "gnn.readout_s": t.seconds("gnn.readout_s"),
        "core.loss_s": t.seconds("core.loss_s"),
        "core.sce_s": t.seconds("core.sce_s"),
        "core.infonce_s": t.seconds("core.infonce_s"),
        "core.structure_s": t.seconds("core.structure_s"),
        "core.disc_s": t.seconds("core.disc_s"),
        "core.nonedge_s": t.seconds("core.nonedge_s"),
        "engine.steps": float(t.calls("nn.optim_s")),
        "engine.epoch1_s": epochs[0],
        "engine.epoch_s": statistics.median(epochs[1:] or epochs),
        "engine.hooks_s": t.seconds("engine.hooks_s"),
        "engine.checkpoint_s": t.seconds("engine.checkpoint_s"),
        "engine.checkpoint_bytes": sum(t.values.get("engine.checkpoint_bytes", [])),
        "engine.self_s": t.self_seconds("engine.run"),
        "eval.probe_s": t.seconds("eval.probe_s"),
        "obs.record_s": t.seconds("obs.record_s"),
        "obs.records": float(t.calls("obs.record_s")),
        "serve.queue_wait_ms_p50": server.queue.get("wait_ms_p50", 0.0),
        "serve.queue_wait_ms_p99": server.queue.get("wait_ms_p99", 0.0),
        "serve.batch_size_mean": server.queue["mean_batch_size"],
        "serve.cache_hit_ratio": server.cache_hit_ratio(),
        "serve.forwards_per_read": server.forwards_per_read(),
        "serve.node_forwards": server.service["node_forwards"],
        "serve.invalidations": server.service["cache.invalidations"],
        "serve.graph_p99_ms": _percentile_ms(server.graph_latency_s, 99),
        "serve.graph_samples": float(len(server.graph_latency_s)),
        "serve.node_p99_ms": _percentile_ms(server.node_latency_s, 99),
        "serve.node_samples": float(len(server.node_latency_s)),
        "trace.overhead_frac": traced.pipeline_s[0] / untraced.pipeline_s[-1] - 1.0,
        "trace.serve_overhead_frac": untraced.server.rps / traced.server.rps - 1.0,
    }


def _same_outputs(a, b) -> list:
    """Checks that tracing changed no loss, probe score or served row."""
    first_a, first_b = a.outcomes[0], b.outcomes[0]
    graphs = zip(a.server.served_graphs, b.server.served_graphs)
    reads = zip(a.server.served_reads, b.server.served_reads)
    return [
        ("traced losses equal untraced", first_a.losses == first_b.losses),
        ("traced probe_acc equals untraced", first_a.probe_acc == first_b.probe_acc),
        ("traced served graph rows equal untraced",
         all(ia == ib and (ra == rb).all() for (ia, ra), (ib, rb) in graphs)),
        ("traced served node rows equal untraced",
         all((ra == rb).all() for (_, _, ra), (_, _, rb) in reads)),
    ]


def _traced_run(workload, args, workdir, tracer, sessions):
    """An untraced and a traced pass over the same inputs; returns both."""
    import tracing
    import workloads
    from repro.nn.profiler import profile

    @contextlib.contextmanager
    def traced_scope():
        tracing.install(tracer)
        try:
            with profile() as session:
                sessions.append(session)
                yield
        finally:
            tracer.unwrap_all()

    untraced = workloads.Pass(workload, args.seed, args.smoke, workdir)
    traced = workloads.Pass(workload, args.seed, args.smoke, workdir)
    serve_s = args.seconds * (1.0 - workload.train_share) / 2
    # The traced pass does fixed work (one pipeline), which keeps layer
    # totals comparable between runs.  The first pipeline in a process runs
    # cold (the allocator is still growing the heap), so the untraced pass
    # runs two and the overhead is taken against the second.
    untraced_ok = untraced.prepare() and untraced.pipeline() and untraced.pipeline()
    with traced_scope():
        traced_ok = traced.prepare() and traced.pipeline()
    if untraced_ok and untraced.deploy():
        untraced.serve_for(serve_s)
    if traced_ok:
        with traced_scope():
            if traced.deploy():
                traced.serve_for(serve_s)
    return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes and one repetition (the self-test)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    cpu = _pin_to_one_cpu()  # before the program can start a thread
    sys.path.insert(0, SRC)
    import tracing
    import workloads
    from repro.obs import record

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"blas_threads {BLAS_THREADS}")
    print(f"cpu_affinity {cpu if cpu is not None else 'unpinned'}")
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")

    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH)
    passes, checks, faults, metrics, units = [], [], [], {}, {}
    try:
        with record():
            if not args.trace:
                run = workloads.Pass(workload, args.seed, args.smoke, workdir)
                run.run(args.seconds)
                passes = [run]
                checks = run.checks()
                metrics, units = _end_to_end(run), _units("end_to_end")
            else:
                tracer, sessions = tracing.Tracer(), []
                untraced, traced = _traced_run(workload, args, workdir, tracer, sessions)
                passes = [untraced, traced]
                checks = untraced.checks() + traced.checks()
                units = _units("per_layer")
                if not any(p.faults for p in passes):
                    checks += _same_outputs(untraced, traced)
                    checks += [(error, False)
                               for error in tracing.coverage_errors(tracer, workload.name)]
                    metrics = _per_layer(tracer, sessions, traced, untraced)
                    tracer.write(os.path.join(
                        SPANS, f"spans-{workload.name}-seed{args.seed}.json"))
    except Exception as error:  # a fault outside any pass still gets a report
        traceback.print_exc(file=sys.stderr)
        faults.append(f"{type(error).__name__}: {error}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    faults += [fault for p in passes for fault in p.faults]
    servers = [p.server for p in passes if p.server is not None]
    failed = sum(not ok for _, ok in checks) + len(faults) + sum(s.errors for s in servers)
    attempted = (
        sum(len(p.pipeline_s) for p in passes) + sum(s.ops for s in servers)
        + len(checks) + len(faults)
    )
    for name, ok in checks:
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)
    for fault in faults:
        print(f"fault: {fault}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if passes:
        print(f"dataset_seed {passes[-1].dataset_seed}")
    if servers:
        last = servers[-1]
        print(f"samples: graph latencies {len(last.graph_latency_s)}, node latencies "
              f"{len(last.node_latency_s)}, serve blocks {len(last.block_rates)}, "
              f"serve ops {last.ops}, pipelines {len(passes[-1].pipeline_s)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
