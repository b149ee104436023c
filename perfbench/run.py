#!/usr/bin/env python3
"""End-to-end benchmark of the ZipChannel reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload paper|stream-lz|stream-bwt \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload stream-lz --steady 10

One run builds the program from source with dune, runs the workload,
prints every metric by name and unit, and prints one JSON object as the
last line of stdout: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 its per-layer metrics.  The exit code is
non-zero when the build fails or a correctness check fails.

--steady K runs the workload K times with seeds N, N+1, ... and prints
each metric's median, quartiles and quartile spread as a share of the
median, next to the metric's bound.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import select
import socket
import statistics
import subprocess
import sys
import time
import urllib.request

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
ZC_EXE = os.path.join(ROOT, "_build", "default", "bin", "zc.exe")

# Processes started per run to time set-up; the median is reported.
# A stream run is split over this many daemons in turn.
SETUPS = 3
# Longest a process may take from spawn to ready.
READY_TIMEOUT_S = 60
# Longest one segment of a stream run may take.
SEGMENT_TIMEOUT_S = 120

# Daemon counters read from each daemon at the end of its segment of
# the stream run, and summed (exact counters only: prof.* and runtime.*
# are sampled and lag).
SERVE_COUNTERS = [
    "serve.connections", "serve.errors", "serve.rejected",
    "kernel.frame.enc_frames", "kernel.deflate.bytes_out",
    "kernel.lzw.bytes_out", "kernel.bzip2.bytes_out", "pipeline.items",
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        raise BenchError("no dune-project at %s: not a checkout of the repository" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe", "./bin/zc.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("build failed (dune exit %d)" % r.returncode)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def spawn_ready(cmd, marker):
    """Start cmd and wait for a stdout line starting with marker; return
    (process, seconds from spawn to that line)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True)
    deadline = t0 + READY_TIMEOUT_S
    while True:
        ready, _, _ = select.select([p.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        if not ready:
            stop(p)
            raise BenchError("%s not ready after %ds" % (cmd[0], READY_TIMEOUT_S))
        line = p.stdout.readline()
        if line == "":
            p.wait()
            raise BenchError("%s exited (%d) before it was ready" % (cmd[0], p.returncode))
        if line.startswith(marker):
            return p, time.perf_counter() - t0


def stop(p):
    if p.poll() is None:
        p.terminate()
        try:
            p.wait(timeout=20)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


def last_json(text, who):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError("%s printed no result" % who)


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def steal_s():
    """Seconds of CPU time the hypervisor took from this machine so far
    (the steal column of /proc/stat), or 0 where it is not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def run_paper(seed, seconds, trace):
    setups = []
    for _ in range(SETUPS - 1):
        p, t = spawn_ready([BENCH_EXE, "paper", "--setup-only", "--seed", str(seed)], "READY")
        p.communicate()
        setups.append(t)
    p, t = spawn_ready([BENCH_EXE, "paper", "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace)], "READY")
    setups.append(t)
    out, _ = p.communicate()
    if p.returncode != 0:
        raise BenchError("paper workload exited %d" % p.returncode)
    res = last_json(out, "paper workload")
    res["metrics"]["setup_s"] = statistics.median(setups)
    res["setups"] = setups
    return res


def start_daemon(jobs):
    for _ in range(3):
        port, mport = free_port(), free_port()
        try:
            p, t = spawn_ready([ZC_EXE, "serve", "--port", str(port), "--metrics-port",
                                str(mport), "--jobs", str(jobs)], "zc serve: data on")
            return p, t, port, mport
        except BenchError as e:  # a port taken between probe and bind
            log("daemon start failed: %s; retrying" % e)
    raise BenchError("could not start zc serve")


def wait_line(p, marker, who):
    """Read p's stdout until a line starting with marker."""
    deadline = time.perf_counter() + SEGMENT_TIMEOUT_S
    while True:
        ready, _, _ = select.select([p.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        if not ready:
            raise BenchError("%s: no %s after %ds" % (who, marker, SEGMENT_TIMEOUT_S))
        line = p.stdout.readline()
        if line == "":
            raise BenchError("%s exited before %s" % (who, marker))
        if line.startswith(marker):
            return


def run_stream(workload, seed, seconds, trace):
    # The daemon never gets more domains than the host has cores.
    jobs = 1 if workload == "stream-lz" else min(2, nproc())
    # One client runs against SETUPS daemons in turn, one segment of the
    # run each; set-up time and peak RSS are the medians over them.
    client = subprocess.Popen(
        [BENCH_EXE, "stream", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--segments", str(SETUPS),
         "--jobs", str(jobs)],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    setups, hwms, counters, daemon = [], [], {}, None
    try:
        for _ in range(SETUPS):
            daemon, t, port, mport = start_daemon(jobs)
            setups.append(t)
            client.stdin.write("PORT %d\n" % port)
            client.stdin.flush()
            wait_line(client, "SEGMENT", "stream client")
            hwms.append(vm_hwm_mb(daemon.pid))
            if trace:
                url = "http://127.0.0.1:%d/metrics.json" % mport
                with urllib.request.urlopen(url, timeout=10) as resp:
                    got = json.load(resp)["counters"]
                for name in SERVE_COUNTERS:
                    counters[name] = counters.get(name, 0.0) + float(got.get(name, 0))
            stop(daemon)
            daemon = None
        client.stdin.close()
        out = client.stdout.read()
        client.wait()
        if client.returncode != 0:
            raise BenchError("stream client exited %d" % client.returncode)
        res = last_json(out, "stream client")
        res["metrics"]["setup_s"] = statistics.median(setups)
        res["metrics"]["peak_rss_mb"] = statistics.median(hwms)
        res["setups"] = setups
        if trace:
            res["layers"].update(counters)
        return res
    finally:
        if daemon is not None:
            stop(daemon)
        stop(client)


def run_once(args, spec):
    build()
    steal0 = steal_s()
    if args.workload == "paper":
        res = run_paper(args.seed, args.seconds, args.trace)
    else:
        res = run_stream(args.workload, args.seed, args.seconds, args.trace)
    host = dict(res.get("host", {}), nproc=nproc(), arch=platform.machine(),
                steal_s=round(steal_s() - steal0, 2))
    print("host: " + json.dumps(host, sort_keys=True))
    if args.trace:
        wanted, source = spec["per_layer"], res["layers"]
    else:
        wanted, source = spec["end_to_end"], res["metrics"]
    metrics, missing = {}, []
    for m in wanted:
        v = source.get(m["name"])
        if args.trace and v is None:
            v = 0.0  # a layer this workload does not exercise
        if v is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    report(args, res, metrics)
    notes = res.get("notes", [])
    for n in notes:
        print("FAILED: " + n)
    for name in missing:
        print("MISSING metric: " + name)
    correct = res["failed"] == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def report(args, res, metrics):
    print("workload %s  seed %d  trace %d  setups %s" % (
        args.workload, args.seed, args.trace, " ".join("%.3f" % s for s in res["setups"])))
    for name, m in metrics.items():
        line = "  %-28s %14.6g %s" % (name, m["value"], m["unit"])
        if name == "latency_tail_ms":
            t = res["tail"]
            line += "   (p%.2f: %d samples beyond, of %d)" % (t["percentile"], t["beyond"], t["samples"])
        print(line)
    print("  %-28s %14.6g ratio   (failed %d of %d attempted)" % (
        "error_rate", res["failed"] / res["attempted"], res["failed"], res["attempted"]))
    if args.trace:
        wall = res["layers"].get("traced_wall_s", 0.0)
        print("  traced wall %.3f s, attributed %.1f%%, unattributed %.3f s" % (
            wall, 100 * res["layers"].get("attributed_share", 0.0),
            res["layers"].get("unattributed_s", 0.0)))
        for name, v in sorted(res.get("spans", {}).items(), key=lambda kv: -kv[1]["self_s"]):
            print("    span %-24s self %9.3f s  total %9.3f s" % (name, v["self_s"], v["total_s"]))


def steady(args, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for k in range(args.steady):
        seed = args.seed + k
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        t0 = time.perf_counter()
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        res = last_json(r.stdout, "run")
        host = [l for l in r.stdout.splitlines() if l.startswith("host: ")]
        log("seed %d: exit %d, %.1f s, correct %s, %s" % (
            seed, r.returncode, time.perf_counter() - t0, res["correct"],
            host[0] if host else "host: ?"))
        if r.returncode != 0:
            return r.returncode
        runs.append(res["metrics"])
    print("%-18s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    worst = 0
    for name in runs[0]:
        vals = [r[name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        b = bounds.get(name)
        flag = ""
        if b is not None and name != "setup_s" and spread > b / 3:
            flag = "  > bound/3"
            worst = 1
        print("%-18s %12.6g %12.6g %12.6g %8.4f %6s%s" % (name, med, q1, q3, spread, b, flag))
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["paper", "stream-lz", "stream-bwt"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="K")
    args = ap.parse_args()
    try:
        spec = load_spec()
        if args.steady:
            return steady(args, spec)
        return run_once(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
