"""One workload process of the benchmark (started by run.py).

It builds a pool of inputs from the seed, warms up, then runs a closed loop
with one client until the requested seconds have passed and every pool
entry has run.  Each op is timed between two runs of the workload's
numpy-only reference kernel (the "after" run of one op is the "before" run
of the next) and checked outside its timed interval.  Records go to stdout
as JSON lines, one per op, so a parent that has to kill this process on a
timeout still gets every op finished so far.

With ``--trace 1`` every other op runs with spans (see tracing.py); the
spans are kept in memory, summarized into per-layer numbers at the end and
written to ``.perfbench/trace-<workload>-<seed>.json``.

Inputs come from ``haar_unitary`` and explicit decreasing spectra rather
than ``random_density_parameters``: its spectrum sampler rejects every draw
for n >= 30, a defect this benchmark leaves visible instead of routing
around it inside the library.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import tracing
from tracing import now_ns

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
TOL = 1e-9           # every check: residual at most this
MIN_OPS = 11         # the tail percentile needs ten samples beyond it
CLI_TIMEOUT_S = 60   # one CLI process
IMPORT_PROBES = 3    # fresh interpreters per probed import
# spans inside decompose_unitary that are validation or result assembly, not peeling
NOT_PEEL = {"linalg.require_unitary", "coset.flag_coordinates", "coset.block_diagonal"}


class CheckFailed(Exception):
    pass


def emit(record):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def hermitian_stack(rng, count, n):
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return z + np.conj(np.swapaxes(z, 1, 2))


def decreasing_spectrum(rng, n, gap):
    """n strictly decreasing eigenvalues, adjacent gaps within 10% of ``gap``, summing to 1."""
    steps = gap * rng.uniform(0.9, 1.1, n - 1)
    lam = np.concatenate([np.cumsum(steps[::-1])[::-1], [0.0]])
    return lam + (1.0 - lam.sum()) / n


def density(v, lam):
    rho = (v * lam) @ v.conj().T
    return (rho + rho.conj().T) / 2


def relative_residual(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class Workload:
    """A pool of seeded inputs, a timed op, its check and a reference kernel."""

    pool_size = 8
    ref_batch = 1
    gram_k = None  # size of the Gram eigh that exp_generator is compared with

    def __init__(self, seed, fp):
        self.fp = fp
        self.rng = np.random.default_rng(seed)
        self.pool = [self.make_entry() for _ in range(self.pool_size)]
        self.tracer = None  # set while a traced op runs

    def ref(self):
        """Run the reference kernel once; return nanoseconds per unit."""
        raise NotImplementedError


class LibraryWorkload(Workload):
    """Reference unit: one dense complex Hermitian n x n eigh, run as a batch.

    Each workload's batch takes about as long as its op: a reference much
    shorter than the op samples a different slice of the host's contention
    and tracks its drift worse (measured: run-to-run spread of the median
    ratio on synthesize-128 went from 0.10 with 2 eighs to 0.03 with 6).
    """

    pool_size = 16  # the worst residual over more entries varies less from seed to seed

    def __init__(self, seed, fp):
        super().__init__(seed, fp)
        self.ref_stack = hermitian_stack(self.rng, self.ref_batch, self.n)

    def ref(self):
        t0 = time.perf_counter_ns()
        np.linalg.eigh(self.ref_stack)
        return (time.perf_counter_ns() - t0) / self.ref_batch


class Roundtrip(LibraryWorkload):
    """deparametrize then parametrize; the result must reproduce rho."""

    def op(self, entry):
        params = self.fp.deparametrize(entry[0])
        return params, self.fp.parametrize(params)

    def check(self, entry, result):
        rho, profile = entry
        params, rho2 = result
        if tuple(params.spectrum.profile) != profile:
            raise CheckFailed(f"profile {params.spectrum.profile} != {profile}")
        return relative_residual(rho2, rho), {"levels": len(params.coords.xs)}


class RoundtripNondeg64(Roundtrip):
    n = 64
    ref_batch = 96

    def make_entry(self):
        v = self.fp.haar_unitary(self.n, self.rng)
        lam = decreasing_spectrum(self.rng, self.n, 1.6e-4)
        return density(v, lam), (1,) * self.n


class RoundtripBalanced16(Roundtrip):
    n = 16
    ref_batch = 400

    def make_entry(self):
        v = self.fp.haar_unitary(self.n, self.rng)
        d = self.rng.uniform(0.2, 0.6)
        lam = np.repeat([(1.0 + d) / self.n, (1.0 - d) / self.n], self.n // 2)
        return density(v, lam), (self.n // 2, self.n // 2)


class Synthesize128(LibraryWorkload):
    """Forward path: generators -> ball coordinates -> flag point -> rho."""

    n = 128
    k = 8
    ref_batch = 6
    gram_k = 8
    generator_norm = 1.4  # below pi/2, where exp_generator equals ball_unitary

    def __init__(self, seed, fp):
        self.profile = (self.k,) * (self.n // self.k)
        self.charts = tuple(tuple(range(1, nj + 1)) for nj in range(self.n, self.k, -self.k))
        super().__init__(seed, fp)

    def make_entry(self):
        m = len(self.profile)
        lam = 1.0 + self.rng.uniform(0.3, 0.6) * (m - 1 - 2 * np.arange(m)) / (m - 1)
        lam = tuple(float(v) for v in lam / (self.k * lam.sum()))
        gens = []
        for nj in range(self.n, self.k, -self.k):
            shape = (nj - self.k, self.k)
            b = self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape)
            gens.append(b * (self.generator_norm / np.linalg.norm(b, 2)))
        return lam, gens

    def op(self, entry):
        fp = self.fp
        lam, gens = entry
        xs = [fp.generator_to_ball(b) for b in gens]
        us = [fp.exp_generator(b) for b in gens]
        coords = fp.FlagCoordinates(self.profile, tuple(xs), self.charts)
        spectrum = fp.Spectrum(self.profile, lam)
        return xs, us, fp.parametrize(fp.DensityParameters(spectrum, coords))

    def check(self, entry, result):
        """Per level exp_generator(B) = ball_unitary(X); rho matches a rebuild from them.

        The rebuild embeds each level's exp_generator(B) in the top-left
        n_j block (every chart is the identity) and multiplies them in
        order, so a wrong or skipped section inside parametrize shows up
        here; the spectrum alone would not show it.
        """
        lam, _ = entry
        xs, us, rho = result
        unitary = max(float(np.linalg.norm(u - self.fp.ball_unitary(x))) for u, x in zip(us, xs))
        diag = np.repeat(lam, self.k)
        section = np.eye(self.n, dtype=complex)
        for u in us:
            nj = u.shape[0]
            section[:, :nj] = section[:, :nj] @ u
        rebuilt = relative_residual(rho, density(section, diag))
        spectrum = np.sort(np.linalg.eigvalsh(rho))[::-1]
        spread = float(np.max(np.abs(spectrum - diag)))
        return max(unitary, rebuilt, spread), {"levels": len(xs)}


class CliRoundtrip32(Workload):
    """rho-to-param then param-to-rho, each a fresh `python -m flagparam.cli`."""

    n = 32
    pool_size = 4
    ref_batch = 2
    untraced_cmd = [sys.executable, "-m", "flagparam.cli"]

    def make_entry(self):
        v = self.fp.haar_unitary(self.n, self.rng)
        rho = density(v, decreasing_spectrum(self.rng, self.n, 1.6e-4))
        doc = {"rows": self.n, "cols": self.n, "re": rho.real.tolist(), "im": rho.imag.tolist()}
        return rho, json.dumps(doc)

    def ref(self):
        """Reference unit: one fresh interpreter that imports numpy."""
        t0 = time.perf_counter_ns()
        for _ in range(self.ref_batch):
            subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                           stdout=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S)
        return (time.perf_counter_ns() - t0) / self.ref_batch

    def _run(self, name, subcommand, text):
        t0 = now_ns()
        if self.tracer is None:
            cmd = self.untraced_cmd + [subcommand]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(t0), subcommand]
        proc = subprocess.run(cmd, input=text, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        t1 = now_ns()
        if proc.returncode != 0:
            raise RuntimeError(f"{subcommand} exited {proc.returncode}: {proc.stderr[-500:]}")
        if self.tracer is not None:
            child = json.loads(proc.stderr.strip().splitlines()[-1])["spans"]
            base = self.tracer.add(name, t0, t1, self.tracer.current())
            for span_name, start, end, parent, _ in child:
                self.tracer.add(span_name, start, end, base if parent < 0 else base + 1 + parent)
        return proc.stdout, t1 - t0

    def op(self, entry):
        params, ns1 = self._run("cli.rho_to_param_process", "rho-to-param", entry[1])
        out, ns2 = self._run("cli.param_to_rho_process", "param-to-rho", params)
        return params, out, [ns1, ns2]

    def check(self, entry, result):
        params, out, process_ns = result
        doc = json.loads(out)
        rho2 = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
        profile = json.loads(params)["profile"]
        if profile != [1] * self.n:
            raise CheckFailed(f"profile {profile} is not non-degenerate")
        extras = {"levels": len(json.loads(params)["levels"]), "process_ns": process_ns}
        return relative_residual(rho2, entry[0]), extras


WORKLOADS = {
    "roundtrip-nondeg-64": RoundtripNondeg64,
    "roundtrip-balanced-16": RoundtripBalanced16,
    "synthesize-128": Synthesize128,
    "cli-roundtrip-32": CliRoundtrip32,
}


def import_library():
    import flagparam

    src = (ROOT / "src").resolve()
    if Path(flagparam.__file__).resolve().parent.parent != src:
        raise SystemExit(f"flagparam was imported from {flagparam.__file__}, not from {src}")
    return flagparam


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    scipy = sys.modules.get("scipy")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__ if scipy else "not imported",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "RLIMIT_AS": resource.getrlimit(resource.RLIMIT_AS)[0],
    }


def run_op(wl, i, traced, tracer, ref_before, kind="op"):
    """Time op ``i`` between two reference runs, check it and emit its record.

    Any failure, a cap included, becomes a failed record; returns the
    reference time measured after the op.
    """
    entry = wl.pool[i % len(wl.pool)]
    error, result = None, None
    if traced:
        tracer.op_id = i
        restore = tracing.instrument(tracer)
        wl.tracer = tracer
        tracer.open("op")
    t0 = time.perf_counter_ns()
    try:
        result = wl.op(entry)
    except MemoryError:
        error = "cap: address_space"
    except subprocess.TimeoutExpired:
        error = "cap: wall_timeout"
    except Exception as exc:  # any failure of the library is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter_ns()
    if traced:
        tracer.close()
        wl.tracer = None
        restore()
        tracer.op_id = None
    ref_after = wl.ref()
    record = {"kind": kind, "i": i, "traced": traced, "op_ns": t1 - t0,
              "ref_ns": [ref_before, ref_after], "ok": False}
    if error is None:
        try:
            residual, extras = wl.check(entry, result)
            record.update(extras, residual=residual, ok=residual <= TOL)
            if residual > TOL:
                error = f"residual {residual:.3e} > {TOL:.0e}"
        except Exception as exc:  # a malformed result fails the op
            error = f"check: {type(exc).__name__}: {exc}"
    if error is not None:
        record["error"] = error
    emit(record)
    return ref_after


def span_summary(spans):
    """Per-layer medians over traced ops: inclusive ms, self ms, calls and coverage."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)

    def dur(idx):
        return (spans[idx][2] - spans[idx][1]) / 1e6

    def nested_in_same(idx):
        name, parent = spans[idx][0], spans[idx][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    incl = defaultdict(lambda: defaultdict(float))
    self_ms = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(lambda: defaultdict(int))
    coverage = []
    for idx, (name, _, _, _, op) in enumerate(spans):
        inner = sum(dur(c) for c in children[idx])
        if name == "op":
            coverage.append(inner / dur(idx))
            continue
        self_ms[op][name] += dur(idx) - inner
        calls[op][name] += 1
        if not nested_in_same(idx):
            incl[op][name] += dur(idx)
        if name == "coset.decompose_unitary":
            incl[op]["coset.peel_level"] += dur(idx) - sum(
                dur(c) for c in children[idx] if spans[c][0] in NOT_PEEL
            )
    ops = sorted(incl)

    def medians(table):
        names = {name for op in ops for name in table[op]}
        return {name: statistics.median(table[op].get(name, 0) for op in ops) for name in names}

    return {"incl_ms": medians(incl), "self_ms": medians(self_ms), "calls": medians(calls),
            "coverage": statistics.median(coverage) if coverage else 0.0}


def single_eigh_ms(n, reps):
    h = hermitian_stack(np.random.default_rng(0), 1, n)[0]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        np.linalg.eigh(h)
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


def import_probe(module):
    """Fresh interpreter: (ms from spawn to its first statement, ms to import ``module``)."""
    code = ("import time; c = time.CLOCK_MONOTONIC; t = time.clock_gettime_ns(c); "
            f"import {module}; print(t, time.clock_gettime_ns(c))")
    spawn = now_ns()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=CLI_TIMEOUT_S).stdout
    first, imported = (int(v) for v in out.split())
    return (first - spawn) / 1e6, (imported - first) / 1e6


def layer_values(wl, spans):
    summary = span_summary(spans)
    incl, calls = summary["incl_ms"], summary["calls"]
    values = {f"{name}_ms": ms for name, ms in incl.items() if not name.startswith("cli.")}
    values["trace.coverage"] = summary["coverage"]
    eigh_ms = single_eigh_ms(wl.n, 21)
    values["linalg.eigh_ms"] = eigh_ms
    values["density.deparametrize_over_eigh"] = incl.get("density.deparametrize", 0.0) / eigh_ms
    if wl.gram_k and calls.get("lie.exp_generator"):
        per_call = incl["lie.exp_generator"] / calls["lie.exp_generator"]
        values["lie.exp_generator_over_gram_eigh"] = per_call / single_eigh_ms(wl.gram_k, 101)
    starts, numpy_ms, flagparam_ms = [], [], []
    for _ in range(IMPORT_PROBES):
        for module, sink in (("numpy", numpy_ms), ("flagparam.cli", flagparam_ms)):
            start, ms = import_probe(module)
            starts.append(start)
            sink.append(ms)
    values["cli.interpreter_start_ms"] = statistics.median(starts)
    values["cli.import_numpy_ms"] = statistics.median(numpy_ms)
    values["cli.import_flagparam_ms"] = statistics.median(flagparam_ms)
    values["cli.import_flagparam_over_numpy"] = (
        values["cli.import_flagparam_ms"] / values["cli.import_numpy_ms"]
    )
    return values, summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-ns", type=int, required=True,
                        help="parent's CLOCK_MONOTONIC reading just before starting this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    fp = import_library()
    wl = WORKLOADS[args.workload](args.seed, fp)
    tracer = tracing.Tracer()
    # the warm-up is pool entry 0, checked and reported like any op but not timed
    ref = run_op(wl, 0, False, tracer, wl.ref(), kind="warmup")
    emit({"kind": "setup", "ns": now_ns() - args.spawn_ns})
    if args.setup_only:
        return
    emit({"kind": "machine", **machine_facts()})

    deadline = time.perf_counter_ns() + int(args.seconds * 1e9)
    min_ops = max(MIN_OPS, len(wl.pool))
    i = 0
    while i < min_ops or time.perf_counter_ns() < deadline:
        ref = run_op(wl, i, bool(args.trace) and i % 2 == 1, tracer, ref)
        i += 1

    if args.trace:
        values, summary = layer_values(wl, tracer.spans)
        emit({"kind": "layers", "values": values, "self_ms": summary["self_ms"],
              "incl_ms": summary["incl_ms"]})
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fp_out:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": tracer.spans}, fp_out)
    emit({"kind": "done",
          "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
          "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss})


if __name__ == "__main__":
    main()
