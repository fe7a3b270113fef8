"""Outside-in tracing: wrap the names that rmpsc's modules resolve at call time.

rmpsc's modules import each other's functions by name, so a wrapper has to
replace the attribute the *caller* looks up (``rmpsc.channel.encode_batch``,
not ``rmpsc.scdec.encode_batch``).  Spans are kept in memory as flat lists and
only recorded while a root span (one benchmark op, or the set-up) is open, so
the harness's own checks never show up in a layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager


def _search_label(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "exhaustive")
    return f"codes.{mode}"


def _frames_of_first_arg(args, kwargs):
    return len(args[0])


# (module, attribute the caller resolves, span label or label function,
#  frame counter or None)
TARGETS = (
    ("rmpsc.channel", "encode_batch", "scdec.encode", None),
    ("rmpsc.channel", "sc_decode_frames", "scdec.sc", None),
    ("rmpsc.channel", "ae_sc_decode_frames", "scdec.ae", None),
    ("rmpsc.scdec", "sc_decode_batch", "kernels.sc", _frames_of_first_arg),
    ("rmpsc.scdec", "polar_transform", "kernels.transform", None),
    ("rmpsc._kernels", "gray_weight_histogram", "kernels.gray", None),
    ("rmpsc.autgroup", "absorption_structure_empirical", "autgroup.absorb", None),
    ("rmpsc.autgroup", "sample_distinct_class_automorphisms", "autgroup.sample", None),
    ("rmpsc.autgroup", "sc_decode_frames", "autgroup.probe_sc", _frames_of_first_arg),
    ("rmpsc.autgroup", "encode_batch", "scdec.encode", None),
    ("rmpsc.autgroup", "sample_blta", "autgroup.sample_blta", None),
    ("rmpsc.codes", "search_max_symmetry", _search_label, None),
    ("rmpsc.codes", "weight_distribution_via_dual", "codes.dual", None),
    ("rmpsc.codes", "upward_closure", "monomials", None),
    ("rmpsc.codes", "minimal_generators", "monomials", None),
    ("rmpsc.monomials", "symmetry", "monomials", None),
    ("rmpsc.cli", "cmd_simulate", "cli.simulate", None),
    ("rmpsc.cli", "sample_distinct_class_automorphisms", "cli.perms", None),
    ("rmpsc.cli", "_auto_a_dmin", "cli.a_dmin", None),
)


class Tracer:
    """Installs span-recording wrappers and restores the originals.

    A span is ``[label, parent index, start, end, frames]``; its index in
    ``spans`` is its identifier.  Root spans have parent ``-1``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self._installed = False

    # ------------------------------------------------------------ wrappers

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        if not self._originals:
            for mod_name, attr, label, frames in TARGETS:
                mod = importlib.import_module(mod_name)
                self._originals.append((mod, attr, getattr(mod, attr), label, frames))
        for mod, attr, original, label, frames in self._originals:
            setattr(mod, attr, self._wrap(original, label, frames))
        self._installed = True

    def restore(self) -> None:
        for mod, attr, original, _, _ in reversed(self._originals):
            setattr(mod, attr, original)
        self._installed = False

    def unrestored(self) -> list[str]:
        """Wrapped names whose attribute is not the original object now."""
        return [
            f"{mod.__name__}.{attr}"
            for mod, attr, original, _, _ in self._originals
            if getattr(mod, attr) is not original
        ]

    def _wrap(self, fn, label, frames):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            name = label(args, kwargs) if callable(label) else label
            size = frames(args, kwargs) if frames is not None else 0
            with tracer._span(name, size):
                return fn(*args, **kwargs)

        return wrapper

    # --------------------------------------------------------------- spans

    @contextmanager
    def _span(self, name: str, frames: int = 0):
        span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None, frames]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            self._stack.pop()
            span[3] = time.perf_counter()

    def root(self, name: str):
        """Open a root span; nested wrapped calls become its descendants."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        return self._span(name)

    def clear(self) -> None:
        self.spans = []


# ------------------------------------------------------------- aggregation


def summarize(spans, root_name: str) -> dict:
    """Per-label totals over the trees under roots named ``root_name``.

    ``incl`` sums a label's spans whose parent has another label; ``self``
    subtracts each span's direct children from it; ``calls`` and ``frames``
    count every span of the label.
    """
    dur = [s[3] - s[2] for s in spans]
    child_time = [0.0] * len(spans)
    in_tree = [False] * len(spans)
    for i, (name, parent, *_rest) in enumerate(spans):
        if parent < 0:
            in_tree[i] = name == root_name
            continue
        in_tree[i] = in_tree[parent]
        child_time[parent] += dur[i]
    incl, self_s, calls, frames = Counter(), Counter(), Counter(), Counter()
    for i, (name, parent, _t0, _t1, size) in enumerate(spans):
        if not in_tree[i]:
            continue
        self_s[name] += dur[i] - child_time[i]
        calls[name] += 1
        frames[name] += size
        if parent < 0 or spans[parent][0] != name:
            incl[name] += dur[i]
    return {"incl": incl, "self": self_s, "calls": calls, "frames": frames}


def layer_metrics(ops: dict, setup: dict, fer_ops: bool) -> dict:
    """Per-layer metrics from ``summarize`` of the op trees and the set-up.

    Times are wall seconds summed over the traced ops.  The three shares
    split the traced op time: ``channel`` is what ``run_fer`` spends outside
    its ``scdec`` calls (FER ops only), ``scdec`` the self time of the decoder
    wrappers, ``kernels`` the time inside ``_kernels``; on FER ops they add
    up to one.
    """
    incl, self_s, calls, frames = ops["incl"], ops["self"], ops["calls"], ops["frames"]
    op_wall_s = incl["op"]
    channel = self_s["op"] if fer_ops else 0.0
    scdec = self_s["scdec.encode"] + self_s["scdec.sc"] + self_s["scdec.ae"]
    kernels = incl["kernels.sc"] + incl["kernels.transform"] + incl["kernels.gray"]
    sc_frames = frames["kernels.sc"]
    return {
        "channel.self_s": channel,
        "channel.share": channel / op_wall_s,
        "scdec.encode_s": incl["scdec.encode"],
        "scdec.encode_calls": calls["scdec.encode"],
        "scdec.sc_s": incl["scdec.sc"],
        "scdec.ae_self_s": self_s["scdec.ae"],
        "scdec.share": scdec / op_wall_s,
        "kernels.sc_s": incl["kernels.sc"],
        "kernels.sc_us_per_frame": 1e6 * incl["kernels.sc"] / sc_frames if sc_frames else 0.0,
        "kernels.sc_calls": calls["kernels.sc"],
        "kernels.sc_frames": sc_frames,
        "kernels.transform_s": incl["kernels.transform"],
        "kernels.gray_s": incl["kernels.gray"],
        "kernels.share": kernels / op_wall_s,
        "autgroup.absorb_s": incl["autgroup.absorb"],
        "autgroup.sample_s": incl["autgroup.sample"],
        "autgroup.probe_sc_s": incl["autgroup.probe_sc"],
        "autgroup.probe_sc_calls": calls["autgroup.probe_sc"],
        "autgroup.probe_self_s": self_s["autgroup.absorb"] + self_s["autgroup.sample"],
        "autgroup.sample_draws": calls["autgroup.sample_blta"],
        "codes.exhaustive_s": incl["codes.exhaustive"],
        "codes.heuristic_s": incl["codes.heuristic"],
        "codes.dual_s": incl["codes.dual"],
        "codes.dual_self_s": self_s["codes.dual"],
        "monomials.s": incl["monomials"],
        "monomials.calls": calls["monomials"],
        "cli.simulate_s": setup["incl"]["cli.simulate"],
        "cli.perms_s": setup["incl"]["cli.perms"],
        "cli.a_dmin_s": setup["incl"]["cli.a_dmin"],
    }
