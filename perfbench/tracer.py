"""Run one ttperm command with spans recorded around every layer call.

Usage: python perfbench/tracer.py SPANS_OUT COMMAND_ID CLI_ARG...

The ttperm package is not modified.  Before ``ttperm.cli.run`` is called,
every public function of the nine modules is replaced by a wrapper in
every ``ttperm.*`` namespace that holds it (modules import names with
``from .homotopy import ...``), and every public class constructor is
wrapped on the class.  Each wrapper records a span: its name, start,
end, parent span and, for a few functions, sizes measured on the
arguments or the result.  The spans stay in memory and are written to
SPANS_OUT as JSON lines when the command ends, so the command's stdout
and exit status are the same as under ``python -m ttperm.cli``.

Methods other than constructors are not wrapped: hot ones such as
``*.normalize`` and ``Group.mul`` run 10^5 times or more per command, and
a span around each would swamp what it measures.  On the benchmark
workloads the most frequent wrapped callable, ``rings.mat_zero``, runs
about 36,000 times in one command.
"""

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("cli", "grp", "permod", "chain", "homotopy", "koszul",
           "twisted", "spectrum", "rings")

# In cli only ``run`` is a span: the rest of cli (argument parsing, the
# command bodies and JSON output) is its self time, ``cli.self_s``.
CLI_SPANS = {"run"}

# Private functions wrapped because a per-layer metric counts their calls.
PRIVATE = {("homotopy", "_hom_basis")}


def _sparse_sizes(args, kwargs):
    rows, ncols = args[1], args[2]
    return {"rows": len(rows), "cols": ncols, "nnz": sum(len(r) for r in rows)}


def _snf_sizes(args, kwargs):
    A = args[1]
    return {"entries": len(A) * (len(A[0]) if A else 0)}


def _mat_mul_sizes(args, kwargs):
    A, B = args[1], args[2]
    k = len(A[0]) if A else 0
    return {"madds": len(A) * k * (len(B[0]) if B else 0)}


def _hom_basis_sizes(result):
    # dense_entries is computed from the shapes, not measured memory
    return {"maps": len(result),
            "dense_entries": sum(f.target.rank * f.source.rank
                                 for f in result)}


MEASURE_ARGS = {
    "homotopy.solve_sparse": _sparse_sizes,
    "homotopy.kernel_sparse": _sparse_sizes,
    "homotopy.rank_sparse": _sparse_sizes,
    "homotopy.smith_normal_form": _snf_sizes,
    "rings.mat_mul": _mat_mul_sizes,
}
MEASURE_RESULT = {"permod.equivariant_hom_basis": _hom_basis_sizes}


class Recorder:
    """Spans of one command, kept in memory until the command ends."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, sizes]
        self.stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        before = MEASURE_ARGS.get(name)
        after = MEASURE_RESULT.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   before(args, kwargs) if before else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                rec[4] = after(result)
            return result

        return span

    def write(self, path, meta):
        with open(path, "w") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _targets(mods):
    """(span name, function or class) for every callable to wrap."""
    for short, mod in mods.items():
        for attr, obj in sorted(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if attr.startswith("_") and (short, attr) not in PRIVATE:
                continue
            if short == "cli" and attr not in CLI_SPANS:
                continue
            if inspect.isfunction(obj):
                yield "%s.%s" % (short, attr), obj
            elif (inspect.isclass(obj)
                  and not issubclass(obj, BaseException)
                  and "__init__" in vars(obj)):
                yield "%s.%s.init" % (short, attr), obj


def install(mods, recorder):
    """Wrap every target and rebind it wherever a ttperm module holds it."""
    names = []
    for name, obj in list(_targets(mods)):
        names.append(name)
        if inspect.isclass(obj):
            obj.__init__ = recorder.wrap(name, obj.__init__)
            continue
        wrapped = recorder.wrap(name, obj)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if val is obj:
                    setattr(mod, attr, wrapped)
    return names


def main(argv):
    spans_out, command_id, cli_args = argv[0], argv[1], argv[2:]
    mods = {m: importlib.import_module("ttperm." + m) for m in MODULES}
    recorder = Recorder()
    wrapped = install(mods, recorder)
    cache = mods["homotopy"]._HOM_BASIS_CACHE
    cache_before = len(cache)
    code = None
    try:
        code = mods["cli"].run(cli_args)
    finally:
        sys.stdout.flush()
        recorder.write(spans_out, {
            "command_id": command_id, "argv": cli_args, "exit": code,
            "wrapped": wrapped,
            "hom_basis_cache_growth": len(cache) - cache_before,
        })
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
