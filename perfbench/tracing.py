"""In-memory spans recorded around calls into flagparam's public functions.

Spans come from the benchmark's side only: ``instrument`` rebinds each
traced function, in every loaded ``flagparam`` module that holds it, to a
wrapper that records (name, start, end, parent, op id), and the returned
callable puts the originals back.  Because the library looks its own
helpers up through module globals, internal calls (``select_chart`` inside
``decompose_unitary``, say) are traced too, and a function a later version
stops calling simply stops showing up.  Missing names are skipped.

Times come from CLOCK_MONOTONIC, which is shared by every process on the
host, so spans recorded in a child process line up with the parent's.
"""

from __future__ import annotations

import sys
import time

# span name -> (module, attribute); a third entry names a method to wrap
TRACED = {
    "linalg.require_unitary": ("flagparam.linalg", "require_unitary"),
    "charts.projector_of_unitary": ("flagparam.charts", "projector_of_unitary"),
    "charts.frame_of_projector": ("flagparam.charts", "frame_of_projector"),
    "charts.select_chart": ("flagparam.charts", "select_chart"),
    "charts.chart_coordinates": ("flagparam.charts", "chart_coordinates"),
    "charts.ball_unitary": ("flagparam.charts", "ball_unitary"),
    "coset.decompose_unitary": ("flagparam.coset", "decompose_unitary"),
    "coset.reconstruct_unitary": ("flagparam.coset", "reconstruct_unitary"),
    "coset.flag_coordinates": ("flagparam.coset", "FlagCoordinates", "__post_init__"),
    "coset.block_diagonal": ("flagparam.coset", "BlockDiagonalUnitary", "__post_init__"),
    "lie.generator_to_ball": ("flagparam.lie", "generator_to_ball"),
    "lie.exp_generator": ("flagparam.lie", "exp_generator"),
    "density.require_density": ("flagparam.density", "require_density"),
    "density.deparametrize": ("flagparam.density", "deparametrize"),
    "density.parametrize": ("flagparam.density", "parametrize"),
    "iojson.loads": ("flagparam.iojson", "loads"),
    "iojson.dumps": ("flagparam.iojson", "dumps"),
    "iojson.matrix_from_json": ("flagparam.iojson", "matrix_from_json"),
    "iojson.matrix_to_json": ("flagparam.iojson", "matrix_to_json"),
    "iojson.params_from_json": ("flagparam.iojson", "params_from_json"),
    "iojson.params_to_json": ("flagparam.iojson", "params_to_json"),
}


def now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans as [name, start_ns, end_ns, parent_index, op_id], parent -1 at the root."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []

    def open(self, name):
        self.spans.append([name, now_ns(), None, self.current(), self.op_id])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = now_ns()

    def add(self, name, start, end, parent):
        """Record a finished span, e.g. one measured in another process."""
        self.spans.append([name, start, end, parent, self.op_id])
        return len(self.spans) - 1

    def current(self):
        return self._stack[-1] if self._stack else -1

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced


def instrument(tracer):
    """Route every traced flagparam function through ``tracer``; returns the undo."""
    undo = []
    for name, target in TRACED.items():
        module = sys.modules.get(target[0])
        if module is None or not hasattr(module, target[1]):
            continue
        if len(target) == 3:
            owner = getattr(module, target[1])
            method = owner.__dict__.get(target[2])
            if method is None:
                continue
            setattr(owner, target[2], tracer.wrap(name, method))
            undo.append((owner, target[2], method))
            continue
        original = getattr(module, target[1])
        wrapper = tracer.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.partition(".")[0] != "flagparam":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))

    def restore():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return restore
