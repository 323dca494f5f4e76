"""Benchmark of ttperm commands, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command of the workload (``workloads.py``) runs in a fresh
``python -m ttperm.cli`` child, one at a time (a closed loop with one
client), so each starts with cold in-process caches as it does for a user.
A run repeats the whole command list, in an order drawn from the seed, for
about S seconds (at least once; see ``run_passes``), and checks the exit
status and stdout sha256 of every command against ``expected.json``.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json from
each command's median over the passes, with times scaled to a reference CPU
speed (see CALIBRATION_REFERENCE_S).  ``setup_s`` is the median time of a
child that only imports ttperm.cli; such children run before the first
pass and at the start of every untraced pass.  With ``--trace 1`` it
alternates an untraced pass with a pass whose children run under
``tracer.py``, and reports the per-layer metrics of BENCHMARK.json,
computed from the spans.  The last line of stdout is one JSON object; the
lines before it, and the files under ``.perfbench/``, hold the machine
context, each command's numbers and the spans.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

from tracer import MODULES
from workloads import REPORTS, WORKLOADS

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Per-child caps.  The seed's largest child peaks at about 300 MB and
# 7.5 s of CPU; above the caps a command fails instead of taking the host
# down (kos --group C8 --subgroup 1 grows to about 7.7 GB).
MEM_CAP = 2 << 30
CPU_CAP = 60
SETUP_WARMUPS = 2
SETUP_SAMPLES = 5       # before the first pass
SETUP_PER_PASS = 3      # at the start of every untraced pass

# Times are scaled to a CPU on which launch.calibrate() takes this long.
# The launcher runs the calibration loop just before and just after each
# child, and the child's times are multiplied by this reference over the
# mean of the two.  On the shared 2-vCPU virtual machine the benchmark was
# built on, the loop took from 0.074 to 0.173 s, in phases lasting from
# seconds to minutes, and the two vCPUs did not slow together.  Over five
# seeds the quartile spread of koszul-certify wall_s was 13% unscaled and 5%
# scaled.  Commands of several seconds (invert C7) gain little, as the speed
# can change while they run.  Unscaled times stay in the results file and
# the log.
CALIBRATION_REFERENCE_S = 0.1


class Refused(Exception):
    """The benchmark cannot run here; nothing is measured."""


def check_environment():
    if not os.path.isfile(os.path.join(ROOT, "src", "ttperm", "cli.py")):
        raise Refused("no src/ttperm/cli.py: run from the root of a ttperm "
                      "checkout")
    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        raise Refused("children would run under python -O, which strips the "
                      "assert-based certificate checks; unset PYTHONOPTIMIZE")
    if "TTPERM_MAX_RANK" in os.environ:
        raise Refused("TTPERM_MAX_RANK is set; it caps the homotopy solves "
                      "the benchmark must time in full")


def child_env():
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Launcher:
    """The process that starts every child (see launch.py for why)."""

    def __init__(self, env, tmp):
        self.tmp = tmp
        self.last = None        # the child whose closing calibration is due
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.join(BENCH_DIR, "launch.py"),
             str(MEM_CAP), str(CPU_CAP)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
            text=True, start_new_session=True)

    def spawn(self, args):
        """Run one child to completion; return its times, RSS and output."""
        out_path = os.path.join(self.tmp, "stdout")
        err_path = os.path.join(self.tmp, "stderr")
        reply = self._request(
            {"argv": args, "stdout": out_path, "stderr": err_path})
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read().decode(errors="replace")
        self.last = {"cal_s": reply["cal_s"],
                     "wall_s": reply["end"] - reply["start"],
                     "cpu_s": reply["cpu_s"],
                     "rss_mb": reply["maxrss_kb"] / 1024.0,
                     "exit": reply["exit"], "stdout": stdout, "stderr": stderr}
        return self.last

    def calibrate(self):
        """Close the last child's calibration bracket."""
        self._request({"argv": None})
        self.last = None

    def _request(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if self.last is not None:
            self.last["cal_after"] = reply["cal_s"]
        return reply

    def close(self, kill=False):
        if kill:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Bench:
    def __init__(self, workload, seed, tmp, launcher):
        self.commands = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.tmp = tmp
        self.launcher = launcher
        with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
            self.expected = json.load(fh)
        self.paths = {}
        self.spans = []         # (pass index, command meta, spans)
        self.setup = []         # setup_s samples, like run_command results
        self.passes = 0

    def argv(self, command):
        return command.format(**self.paths).split()

    def run_command(self, command, traced=False):
        base = [sys.executable]
        if traced:
            spans_path = os.path.join(self.tmp, "spans.jsonl")
            base += [os.path.join(BENCH_DIR, "tracer.py"), spans_path,
                     "%d:%s" % (self.passes, command)]
        else:
            base += ["-m", "ttperm.cli"]
        res = self.launcher.spawn(base + self.argv(command))
        res["command"] = command
        res["traced"] = traced
        res["sha256"] = hashlib.sha256(res.pop("stdout")).hexdigest()
        res["stderr"] = res["stderr"][-400:]
        want = self.expected[command]
        res["ok"] = (res["exit"] == want["exit"]
                     and res["sha256"] == want["sha256"])
        if traced and res["ok"]:
            with open(spans_path) as fh:
                lines = fh.read().splitlines()
            self.spans.append((self.passes, json.loads(lines[0]),
                               [json.loads(line) for line in lines[1:]]))
        return res

    def prepare(self):
        """Write the report files the commands read; checked, not timed."""
        for name, command in REPORTS.items():
            res = self.run_command(command)
            if not res["ok"]:
                raise Refused("cannot prepare %s: %r exited %d, stderr %s"
                              % (name, command, res["exit"], res["stderr"]))
            path = os.path.join(self.tmp, name + ".json")
            shutil.copyfile(os.path.join(self.tmp, "stdout"), path)
            self.paths[name] = os.path.relpath(path, ROOT)

    def check_import(self):
        """Fail unless children import ttperm from ./src; warm up."""
        probe = [sys.executable, "-c",
                 "import ttperm.cli, sys; sys.stdout.write(ttperm.cli.__file__)"]
        for _ in range(SETUP_WARMUPS):     # the first writes bytecode
            res = self.launcher.spawn(probe)
        where = res["stdout"].decode(errors="replace")
        if res["exit"] != 0 or not where.startswith(
                os.path.join(ROOT, "src") + os.sep):
            raise Refused("children import ttperm from %r, not from ./src"
                          % where)

    def sample_setup(self):
        """Time a child that starts and imports ttperm.cli (setup_s)."""
        res = self.launcher.spawn([sys.executable, "-c", "import ttperm.cli"])
        if res["exit"] != 0:
            raise Refused("import ttperm.cli failed: %s" % res["stderr"])
        del res["stdout"]
        self.setup.append(res)

    def import_times(self, samples=3):
        """Median self time of importing each ttperm module, in seconds."""
        probe = [sys.executable, "-X", "importtime", "-c", "import ttperm.cli"]
        times = defaultdict(list)
        for _ in range(samples):
            for line in self.launcher.spawn(probe)["stderr"].splitlines():
                fields = [f.strip() for f in line.split("|")]
                if len(fields) == 3 and fields[2].startswith("ttperm."):
                    own_us = fields[0].rsplit(None, 1)[-1]
                    times[fields[2][len("ttperm."):]].append(
                        int(own_us) / 1e6)
        return {mod: statistics.median(times[mod]) for mod in MODULES}

    def run_pass(self, traced=False):
        order = list(self.commands)
        self.rng.shuffle(order)
        if not traced:
            for _ in range(SETUP_PER_PASS):
                self.sample_setup()
        results = [self.run_command(command, traced) for command in order]
        self.launcher.calibrate()
        self.passes += 1
        return {"traced": traced,
                "wall_s": sum(r["wall_s"] for r in results),
                "scaled_wall_s": sum(scaled(r, "wall_s") for r in results),
                "cpu_s": sum(r["cpu_s"] for r in results),
                "max_op_s": max(r["wall_s"] for r in results),
                "peak_rss_mb": max(r["rss_mb"] for r in results),
                "results": results}


def run_passes(bench, seconds, traced):
    """Passes (untraced, or untraced then traced) for about ``seconds``.

    Another pass starts while it would end at most half a pass late, so on
    average a run measures for ``seconds`` and a workload whose pass takes
    just over half of it still gets two.
    """
    kinds = [False, True] if traced else [False]
    passes = []
    start = time.perf_counter()
    while True:
        group = [bench.run_pass(kind) for kind in kinds]
        passes.extend(group)
        spent = time.perf_counter() - start
        per_group = spent / (len(passes) // len(kinds))
        if spent + per_group / 2 > seconds:
            return passes


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def scaled(res, key):
    """A child's time at the reference CPU speed (CALIBRATION_REFERENCE_S)."""
    cal = (res["cal_s"] + res["cal_after"]) / 2
    return res[key] * CALIBRATION_REFERENCE_S / cal


def end_to_end(passes, setup):
    """Each command's median over the passes, combined over the workload."""
    runs = defaultdict(list)
    for p in passes:
        for r in p["results"]:
            runs[r["command"]].append(r)

    def per_command(key):
        return [statistics.median(scaled(r, key) for r in rs)
                for rs in runs.values()]

    results = [r for p in passes for r in p["results"]]
    return {
        "wall_s": sum(per_command("wall_s")),
        "cpu_s": sum(per_command("cpu_s")),
        "max_op_s": max(per_command("wall_s")),
        "peak_rss_mb": max(statistics.median(r["rss_mb"] for r in rs)
                           for rs in runs.values()),
        "setup_s": statistics.median(scaled(r, "wall_s") for r in setup),
        "pass_ratio": sum(r["ok"] for r in results) / len(results),
    }


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(span_sets, wrapped):
    """Per-layer numbers summed over the commands of one traced pass."""
    by_name = defaultdict(lambda: defaultdict(float))
    by_module = defaultdict(lambda: defaultdict(float))
    cache_growth = 0
    for meta, spans in span_sets:
        cache_growth += meta["hom_basis_cache_growth"]
        for rec, own in zip(spans, self_times(spans)):
            name, start, end, _, sizes = rec
            stat = by_name[name]
            stat["calls"] += 1
            stat["self_s"] += own
            stat["total_s"] += end - start
            for key, val in (sizes or {}).items():
                stat[key] += val
            module = by_module[name.split(".")[0]]
            module["calls"] += 1
            module["self_s"] += own
    m = {}
    for name in wrapped:
        for key, val in by_name[name].items():
            m["%s.%s" % (name, key)] = val
    for mod in MODULES:
        m["%s.self_s" % mod] = by_module[mod]["self_s"]
        m["%s.calls" % mod] = by_module[mod]["calls"]
    run_s = by_name["cli.run"]["total_s"]
    m["cli.run_s"] = run_s
    m["trace.coverage"] = 1.0 - m["cli.self_s"] / run_s if run_s else 0.0
    basis_calls = by_name["homotopy._hom_basis"]["calls"]
    m["homotopy.hom_basis_cache.entries"] = cache_growth
    m["homotopy.hom_basis_cache.hit_ratio"] = (
        1.0 - cache_growth / basis_calls if basis_calls else 0.0)
    searches = by_name["homotopy.find_homotopy_equivalence"]["calls"]
    m["homotopy.equiv.cones_per_search"] = (
        by_name["chain.cone"]["calls"] / searches if searches else 0.0)
    return m, by_module


def per_layer(bench, passes, imports, spec):
    """Medians over traced passes of each per-layer metric in ``spec``."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    wrapped = set()
    for _, meta, _ in bench.spans:
        wrapped.update(meta["wrapped"])
    derived = {"trace.overhead_s", "fail_ratio", "cli.run_s",
               "trace.coverage", "homotopy.hom_basis_cache.entries",
               "homotopy.hom_basis_cache.hit_ratio",
               "homotopy.equiv.cones_per_search"}
    derived.update("%s.%s" % (mod, key) for mod in MODULES
                   for key in ("self_s", "calls", "import_s"))
    unknown = [name for name in spec if name not in derived
               and name.rsplit(".", 1)[0] not in wrapped]
    if unknown:
        raise Refused("BENCHMARK.json names per-layer metrics the tracer "
                      "does not produce: %s" % ", ".join(unknown))
    samples = defaultdict(list)
    modules_by_command = []
    for index in sorted({i for i, _, _ in bench.spans}):
        sets = [(meta, spans) for i, meta, spans in bench.spans if i == index]
        m, _ = layer_metrics(sets, wrapped)
        for meta, spans in sets:
            _, mods = layer_metrics([(meta, spans)], wrapped)
            modules_by_command.append(
                (meta["command_id"],
                 {mod: mods[mod]["self_s"] for mod in MODULES}))
        for name in spec:
            samples[name].append(m.get(name, 0.0))
    results = [r for p in passes for r in p["results"]]
    out = {name: statistics.median(vals) for name, vals in samples.items()}
    out["trace.overhead_s"] = (median_of(traced, "scaled_wall_s")
                               - median_of(plain, "scaled_wall_s"))
    out["fail_ratio"] = sum(not r["ok"] for r in results) / len(results)
    out.update(("%s.import_s" % mod, val) for mod, val in imports.items())
    return {name: out[name] for name in spec}, modules_by_command


def machine_context():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src = hashlib.sha256()
    src_dir = os.path.join(ROOT, "src", "ttperm")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": "%s %s" % (platform.python_implementation(),
                                 platform.python_version()),
            "commit": commit, "src_sha256": src.hexdigest()}


def report_commands(passes):
    for i, p in enumerate(passes):
        print("# pass %d%s: wall %.3f s, cpu %.3f s, slowest %.3f s, "
              "peak %.1f MB" % (i, " (traced)" if p["traced"] else "",
                                p["wall_s"], p["cpu_s"], p["max_op_s"],
                                p["peak_rss_mb"]))
        for r in p["results"]:
            print("#   %-4s exit %d  %7.3f s  %7.3f cpu  %6.1f MB  "
                  "%7.3f s scaled  %s"
                  % ("ok" if r["ok"] else "FAIL", r["exit"], r["wall_s"],
                     r["cpu_s"], r["rss_mb"], scaled(r, "wall_s"),
                     r["command"]))
            if not r["ok"]:
                print("#        stderr: %s" % r["stderr"].replace("\n", " | "))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        check_environment()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (Refused, OSError) as exc:
        sys.stderr.write("perfbench: refusing to run: %s\n" % exc)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    launcher = Launcher(child_env(), tmp)
    finished = False
    try:
        bench = Bench(args.workload, args.seed, tmp, launcher)
        context = machine_context()
        print("# workload %s, seed %d, %g s, trace %d"
              % (args.workload, args.seed, args.seconds, args.trace))
        print("# context %s" % json.dumps(context, sort_keys=True))
        bench.check_import()
        for _ in range(SETUP_SAMPLES):
            bench.sample_setup()
        bench.prepare()
        imports = bench.import_times() if args.trace else None
        passes = run_passes(bench, args.seconds, bool(args.trace))
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            values, by_command = per_layer(bench, passes, imports, names)
        else:
            names = [m["name"] for m in spec["end_to_end"]]
            values, by_command = end_to_end(passes, bench.setup), []
        finished = True
    except Refused as exc:
        sys.stderr.write("perfbench: refusing to run: %s\n" % exc)
        return 2
    finally:
        launcher.close(kill=not finished)
        shutil.rmtree(tmp, ignore_errors=True)
    report_commands(passes)
    for command_id, mods in by_command:
        print("# self_s %s: %s" % (command_id, " ".join(
            "%s=%.3f" % (mod, val) for mod, val in mods.items())))
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    results = [r for p in passes for r in p["results"]]
    failed = sum(not r["ok"] for r in results)
    summary = {
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in names},
    }
    for name in names:
        print("# %-44s %s %s" % (name, values[name], units[name]))
    print("# fail_ratio %d/%d" % (failed, len(results)))
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump({"context": context, "setup": bench.setup, "summary": summary,
                   "passes": passes}, fh, indent=1, sort_keys=True)
    if bench.spans:
        with open(os.path.join(OUT_DIR, stem + ".spans.jsonl"), "w") as fh:
            for index, meta, spans in bench.spans:
                fh.write(json.dumps(dict(meta, pass_index=index,
                                         spans=spans)) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
