"""In-memory span tracer that wraps qstoch functions from outside.

The tracer replaces a module attribute (say ``mub.qmat_mul``) by a wrapper
that times every call.  Each binding is wrapped where the calling module
looks it up, so ``mub.qmat_mul`` and ``qmatrix.qmat_mul`` are separate
bindings of one function and are attributed separately.  Nothing under
``src/`` is edited; ``restore()`` puts every original back.

Two kinds of span exist:

* recorded spans (jobs and the public entry points the benchmark calls) are
  kept one by one with name, start, end, parent and job id;
* kernel spans (``qmul``, ``qmat_mul``, Gram-Schmidt, parsing, ...) run
  millions of times, so they are aggregated per name into call count,
  total time and self time.  They still count as children of the span that
  encloses them, so self times add up to the traced wall time.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        # name -> [calls, total_s, self_s]
        self.kernels: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        # facts a running job shares with the wrappers' counting hooks
        self.ctx: dict = {}
        self._stack: list[list] = []  # [start, child_s, span id, parent id]
        self._job: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------

    def _enter(self, record: bool) -> list:
        parent = self._stack[-1][2] if self._stack else None
        sid = len(self.spans) if record else parent
        if record:
            self.spans.append(None)  # reserve the id; filled on exit
        frame = [_clock(), 0.0, sid, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, record: bool) -> float:
        end = _clock()
        self._stack.pop()
        dur = end - frame[0]
        if self._stack:
            self._stack[-1][1] += dur
        agg = self.kernels[name]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[1]
        if record:
            self.spans[frame[2]] = {
                "name": name, "start": frame[0], "end": end,
                "parent": frame[3], "job": self._job,
                "self_s": dur - frame[1]}
        return dur

    def job(self, job_id: str, kind: str):
        """Context manager for the root span of one benchmark job."""
        tracer = self

        class _JobSpan:
            def __enter__(self):
                tracer._job = job_id
                self.frame = tracer._enter(True)
                return self

            def __exit__(self, *exc):
                self.wall = tracer._exit(self.frame, "job." + kind, True)
                tracer._job = None
                return False

        return _JobSpan()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name, *, record: bool = False,
             after=None) -> None:
        """Wrap ``owner.attr``.

        ``name`` is a span name or a function of the call arguments that
        returns one.  ``after(args, kwargs, result)`` runs outside the
        span, so counting costs no traced time.
        """
        fn = getattr(owner, attr)
        enter, exit_ = self._enter, self._exit
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            span = fixed or name(args, kwargs)
            frame = enter(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame, span, record)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, name: str, *, after=None) -> None:
        """Wrap a generator function; each ``next()`` is one kernel span."""
        fn = getattr(owner, attr)
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = enter(False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    exit_(frame, name, False)
                if after is not None:
                    after(item)
                yield item

        wrapper.__wrapped__ = fn
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # -- results ---------------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.kernels[name][2] if name in self.kernels else 0.0

    def total_s(self, name: str) -> float:
        return self.kernels[name][1] if name in self.kernels else 0.0

    def calls(self, name: str) -> int:
        return self.kernels[name][0] if name in self.kernels else 0

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer, the layer being the span-name prefix."""
        out: dict[str, float] = defaultdict(float)
        for name, (_, _, self_time) in self.kernels.items():
            out[name.split(".", 1)[0]] += self_time
        return dict(out)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "kernels": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                        for k, v in sorted(self.kernels.items())},
            "counters": dict(sorted(self.counters.items())),
        }
